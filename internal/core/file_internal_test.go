package core

import (
	"bytes"
	"fmt"
	"testing"
)

// TestReadAheadUnderDirtyPressure reads a sequential file with one
// read-ahead run while dirty blocks leave fewer clean cache slots than
// the run holds, so the run's own Adds must evict clean blocks. The
// block readDataBlock returns must survive them with its own contents:
// an evicted block is recycled for the next key.
func TestReadAheadUnderDirtyPressure(t *testing.T) {
	cfg := smallConfig()
	cfg.CacheBlocks = 48
	fs := newTestFS(t, 16<<20, cfg)
	bs := cfg.BlockSize
	const runBlocks = 8 // all direct blocks, written by one flush
	want := make([]byte, runBlocks*bs)
	for i := range want {
		want[i] = byte(i/bs+1) ^ byte(i)
	}
	if err := fs.Create("/seq"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/seq", 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()

	// Dirty the cache until fewer clean slots remain than the run.
	if err := fs.Create("/fill"); err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{0xAA}, bs)
	for lbn := int64(0); cfg.CacheBlocks-fs.bc.DirtyCount() >= runBlocks/2; lbn++ {
		if err := fs.Write("/fill", lbn*int64(bs), blk); err != nil {
			t.Fatal(err)
		}
	}
	if fs.bc.DirtyCount() == 0 {
		t.Fatal("fill blocks were written back; the cache holds no dirty pressure")
	}
	evictions := fs.bc.Stats().Evictions

	got := make([]byte, len(want))
	if n, err := fs.Read("/seq", 0, got); err != nil || n != len(got) {
		t.Fatalf("read %d bytes, err %v", n, err)
	}
	for lbn := 0; lbn < runBlocks; lbn++ {
		if !bytes.Equal(got[lbn*bs:(lbn+1)*bs], want[lbn*bs:(lbn+1)*bs]) {
			t.Errorf("block %d read back wrong contents", lbn)
		}
	}
	if fs.bc.Stats().Evictions == evictions {
		t.Fatal("the read-ahead run evicted nothing; the test exercised no recycling")
	}
}

// BenchmarkCleanerActivation times one CleanUntil over a volume whose
// segments were just half killed by overwrites. The overwrites and
// their sync run with the timer stopped, and the volume stays mounted
// throughout, so the numbers are the steady-state cost of an
// activation with a warm cache.
func BenchmarkCleanerActivation(b *testing.B) {
	cfg := smallConfig()
	cfg.SegmentSize = 256 << 10
	cfg.CacheBlocks = 256
	fs := newTestFS(b, 8<<20, cfg)
	const files = 600
	paths := make([]string, files)
	blk := make([]byte, cfg.BlockSize)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%d", i)
		if err := fs.Create(paths[i]); err != nil {
			b.Fatal(err)
		}
		if err := fs.Write(paths[i], 0, blk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		// Overwrite every other file, alternating halves, so the
		// segments holding the previous copies are left about half
		// live.
		for i := n % 2; i < files; i += 2 {
			blk[0] = byte(n)
			if err := fs.Write(paths[i], 0, blk); err != nil {
				b.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
		target := fs.CleanSegments() + 4
		b.StartTimer()
		res, err := fs.CleanUntil(target)
		if err != nil {
			b.Fatal(err)
		}
		if res.SegmentsCleaned == 0 {
			b.Fatal("cleaner did nothing")
		}
	}
}
