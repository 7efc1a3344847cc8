package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

func TestSegUsageRoundTrip(t *testing.T) {
	u := segUsage{
		Live:      123456,
		LastWrite: sim.Time(9 * sim.Second),
		Age:       sim.Time(4 * sim.Second), // older than LastWrite: relocated cold data
		State:     segDirty,
	}
	buf := make([]byte, segUsageEntrySize)
	u.encode(buf)
	if got := decodeSegUsage(buf); got != u {
		t.Fatalf("round trip: %+v vs %+v", got, u)
	}
}

// TestSegUsageDecodeV1 pins the pre-age entry layout (Live at 0,
// LastWrite at 8, State at 16, 24 bytes total) and the decode
// fallback: with no recorded age, the last write time is the best
// available estimate.
func TestSegUsageDecodeV1(t *testing.T) {
	buf := make([]byte, segUsageEntrySizeV1)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], 777)
	le.PutUint64(buf[8:], uint64(6*sim.Second))
	buf[16] = segDirty
	got := decodeSegUsageV1(buf)
	want := segUsage{
		Live:      777,
		LastWrite: sim.Time(6 * sim.Second),
		Age:       sim.Time(6 * sim.Second),
		State:     segDirty,
	}
	if got != want {
		t.Fatalf("v1 decode: %+v, want %+v", got, want)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	refs := []blockRef{
		{Kind: kindData, Ino: 5, ID: 17, Version: 3},
		{Kind: kindIndirect, Ino: 5, ID: indSingle, Version: 3},
		{Kind: kindInodes},
		{Kind: kindImap, ID: 12},
	}
	h := summaryHeader{
		Serial: 42, NBlocks: len(refs), SumBlocks: 1,
		Timestamp: sim.Time(7), DataCRC: 0xDEADBEEF,
		Class: classCold, Age: sim.Time(3), // a relocation unit: data older than its write
	}
	buf := make([]byte, 4096)
	encodeSummary(h, refs, buf)
	gotH, gotRefs, err := decodeSummary(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("header: %+v vs %+v", gotH, h)
	}
	if !reflect.DeepEqual(gotRefs, refs) {
		t.Fatalf("refs: %+v vs %+v", gotRefs, refs)
	}
}

func TestSummaryDetectsCorruption(t *testing.T) {
	refs := []blockRef{{Kind: kindData, Ino: 1, ID: 0, Version: 0}}
	h := summaryHeader{Serial: 1, NBlocks: 1, SumBlocks: 1}
	buf := make([]byte, 4096)
	encodeSummary(h, refs, buf)
	buf[40] ^= 0x01
	if _, _, err := decodeSummary(buf, nil); err == nil {
		t.Fatal("corrupted summary decoded")
	}
}

func TestSummaryRejectsGarbage(t *testing.T) {
	if _, _, err := decodeSummary(make([]byte, 4096), nil); err == nil {
		t.Fatal("zero block decoded as summary")
	}
	if _, _, err := decodeSummary(make([]byte, 10), nil); err == nil {
		t.Fatal("short buffer decoded as summary")
	}
}

// copyingSummaryValid is the summary check as it was first written:
// copy the summary, zero its checksum field, and checksum the copy.
// decodeSummary must accept exactly what it accepts.
func copyingSummaryValid(p []byte) bool {
	if len(p) < summaryHeaderSize || binary.LittleEndian.Uint32(p) != summaryMagic {
		return false
	}
	total := summaryBytes(int(binary.LittleEndian.Uint16(p[12:])))
	if total > len(p) {
		return false
	}
	scratch := append([]byte(nil), p[:total]...)
	binary.LittleEndian.PutUint32(scratch[28:], 0)
	return layout.Checksum(scratch) == binary.LittleEndian.Uint32(p[28:])
}

func TestSummaryChecksumMatchesCopyingCheck(t *testing.T) {
	refs := []blockRef{
		{Kind: kindData, Ino: 5, ID: 17, Version: 3},
		{Kind: kindIndirect, Ino: 5, ID: indSingle, Version: 3},
		{Kind: kindInodes},
	}
	h := summaryHeader{Serial: 9, NBlocks: len(refs), SumBlocks: 1, Timestamp: 7, DataCRC: 0xFEED}
	valid := make([]byte, 4096)
	encodeSummary(h, refs, valid)
	end := summaryBytes(len(refs))
	flip := func(off int) func([]byte) []byte {
		return func(p []byte) []byte { p[off] ^= 0x40; return p }
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		accept bool
	}{
		{"valid", func(p []byte) []byte { return p }, true},
		{"valid, exact length", func(p []byte) []byte { return p[:end] }, true},
		{"byte past the entries", flip(end), true},
		{"crc field byte 0", flip(28), false},
		{"crc field byte 3", flip(31), false},
		{"header serial", flip(5), false},
		{"header data crc", flip(25), false},
		{"header class", flip(32), false},
		{"header age", flip(41), false},
		{"magic", flip(0), false},
		{"block count", flip(12), false},
		{"ref kind", flip(summaryHeaderSize), false},
		{"ref ino", flip(summaryHeaderSize + summaryEntrySize + 4), false},
		{"last ref version", flip(end - 5), false},
		{"truncated mid-entries", func(p []byte) []byte { return p[:end-1] }, false},
		{"truncated mid-header", func(p []byte) []byte { return p[:summaryHeaderSize-1] }, false},
		{"empty", func(p []byte) []byte { return p[:0] }, false},
	}
	for _, c := range cases {
		p := c.mutate(append([]byte(nil), valid...))
		_, got, err := decodeSummary(p, nil)
		if ref := copyingSummaryValid(p); ref != c.accept {
			t.Fatalf("%s: copying check accepts=%v, case expects %v", c.name, ref, c.accept)
		}
		if (err == nil) != c.accept {
			t.Errorf("%s: decodeSummary err=%v, want accept=%v", c.name, err, c.accept)
		}
		if err == nil && !reflect.DeepEqual(got, refs) {
			t.Errorf("%s: refs %+v, want %+v", c.name, got, refs)
		}
	}
}

func TestDecodeSummaryAllocatesNothing(t *testing.T) {
	refs := make([]blockRef, 40)
	for i := range refs {
		refs[i] = blockRef{Kind: kindData, Ino: layout.Ino(i + 1), ID: int64(i), Version: 1}
	}
	p := make([]byte, 4096)
	encodeSummary(summaryHeader{Serial: 1, NBlocks: len(refs), SumBlocks: 1}, refs, p)
	dst := make([]blockRef, 0, len(refs))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := decodeSummary(p, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decodeSummary of a valid summary: %v allocs, want 0", n)
	}
	zero := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() { _, _, _ = decodeSummary(zero, dst) }); n != 0 {
		t.Fatalf("decodeSummary of an unused block: %v allocs, want 0", n)
	}
}

func TestSummaryRoundTripProperty(t *testing.T) {
	f := func(serial uint64, n uint8, seed int64) bool {
		count := int(n%60) + 1
		rng := rand.New(rand.NewSource(seed))
		refs := make([]blockRef, count)
		for i := range refs {
			refs[i] = blockRef{
				Kind:    blockKind(rng.Intn(4)),
				Ino:     layout.Ino(rng.Uint32()),
				ID:      rng.Int63() - rng.Int63(),
				Version: rng.Uint32(),
			}
		}
		sumBlks := summaryBlocks(count, 4096)
		h := summaryHeader{Serial: serial, NBlocks: count, SumBlocks: sumBlks, Timestamp: sim.Time(rng.Int63())}
		buf := make([]byte, sumBlks*4096)
		encodeSummary(h, refs, buf)
		gotH, gotRefs, err := decodeSummary(buf, nil)
		return err == nil && gotH == h && reflect.DeepEqual(gotRefs, refs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxUnitBlocks(t *testing.T) {
	bs := 4096
	// Not even one data block fits in less than 2 blocks.
	if maxUnitBlocks(0, bs) != 0 || maxUnitBlocks(1, bs) != 0 {
		t.Fatal("tiny avail should fit nothing")
	}
	// n blocks plus their summary always fit in the reported avail.
	for avail := 2; avail <= 512; avail++ {
		n := maxUnitBlocks(avail, bs)
		if n < 1 {
			t.Fatalf("avail %d fits nothing", avail)
		}
		if summaryBlocks(n, bs)+n > avail {
			t.Fatalf("avail %d: %d blocks + %d summary overflow", avail, n, summaryBlocks(n, bs))
		}
		// Maximality: one more block must not fit.
		if summaryBlocks(n+1, bs)+n+1 <= avail {
			t.Fatalf("avail %d: %d not maximal", avail, n)
		}
	}
}

func TestBlockKindString(t *testing.T) {
	for k, want := range map[blockKind]string{
		kindData: "data", kindIndirect: "indirect", kindInodes: "inodes", kindImap: "imap",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if blockKind(9).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	st := checkpointState{
		Serial: 7, Timestamp: sim.Time(3 * sim.Second),
		HeadSeg: 5, HeadBlk: 100, WriteSerial: 99, LiveBytes: 1 << 20,
		ColdOpen: true, ColdSeg: 9, ColdBlk: 42,
		ImapAddrs: []layout.DiskAddr{1, layout.NilAddr, 3},
		Usage: []segUsage{
			{Live: 10, LastWrite: 1, Age: 1, State: segClean},
			{Live: 20, LastWrite: 2, Age: 1, State: segDirty},
			{Live: 0, LastWrite: 3, Age: 3, State: segActive},
		},
	}
	size := ckptHeaderSize + len(st.ImapAddrs)*layout.AddrSize + len(st.Usage)*segUsageEntrySize + 4
	buf := make([]byte, (size+511)&^511)
	encodeCheckpoint(st, buf)
	got, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, st)
	}
}

// TestCheckpointColdHeadClosed: a closed cold head encodes as the
// sentinel, and the decoder must normalise the position to zero — a
// stale ColdSeg/ColdBlk must not leak through a closed head.
func TestCheckpointColdHeadClosed(t *testing.T) {
	st := checkpointState{
		Serial: 1, HeadSeg: 2, HeadBlk: 3,
		ColdOpen: false, ColdSeg: 14, ColdBlk: 77, // stale in-core values
		ImapAddrs: []layout.DiskAddr{1},
		Usage:     []segUsage{{Live: 5, LastWrite: 1, Age: 1, State: segDirty}},
	}
	buf := make([]byte, 1024)
	encodeCheckpoint(st, buf)
	got, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ColdOpen || got.ColdSeg != 0 || got.ColdBlk != 0 {
		t.Fatalf("closed cold head decoded as open=%v seg=%d blk=%d",
			got.ColdOpen, got.ColdSeg, got.ColdBlk)
	}
}

// TestDecodeCheckpointV1Image hand-builds a pre-age ("LCKP")
// checkpoint region byte by byte and decodes it with the current
// code: the 24-byte usage entries must parse at the v1 offsets, Age
// must fall back to LastWrite, and the cold head must stay closed.
// This is the compatibility guard for volumes checkpointed before the
// format change.
func TestDecodeCheckpointV1Image(t *testing.T) {
	imap := []layout.DiskAddr{100, layout.NilAddr}
	usage := []segUsage{
		{Live: 4096, LastWrite: sim.Time(2 * sim.Second), State: segDirty},
		{Live: 0, LastWrite: sim.Time(5 * sim.Second), State: segActive},
	}
	size := ckptHeaderSize + len(imap)*layout.AddrSize + len(usage)*segUsageEntrySizeV1 + 4
	buf := make([]byte, (size+511)&^511)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], ckptMagicV1)
	le.PutUint64(buf[4:], 9)                     // Serial
	le.PutUint64(buf[12:], uint64(7*sim.Second)) // Timestamp
	le.PutUint32(buf[20:], 1)                    // HeadSeg
	le.PutUint32(buf[24:], 30)                   // HeadBlk
	le.PutUint64(buf[28:], 55)                   // WriteSerial
	le.PutUint64(buf[36:], 4096)                 // LiveBytes
	le.PutUint32(buf[44:], uint32(len(imap)))
	le.PutUint32(buf[48:], uint32(len(usage)))
	// A v1 writer left bytes 52..59 zero; leave them zero here — the
	// decoder must not read a cold head out of them.
	off := ckptHeaderSize
	for _, a := range imap {
		le.PutUint32(buf[off:], uint32(a))
		off += layout.AddrSize
	}
	for _, u := range usage {
		le.PutUint64(buf[off+0:], uint64(u.Live))
		le.PutUint64(buf[off+8:], uint64(u.LastWrite))
		buf[off+16] = u.State
		off += segUsageEntrySizeV1
	}
	le.PutUint32(buf[off:], layout.Checksum(buf[:off]))

	got, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != 9 || got.Timestamp != sim.Time(7*sim.Second) ||
		got.HeadSeg != 1 || got.HeadBlk != 30 ||
		got.WriteSerial != 55 || got.LiveBytes != 4096 {
		t.Fatalf("v1 header decoded wrong: %+v", got)
	}
	if got.ColdOpen || got.ColdSeg != 0 || got.ColdBlk != 0 {
		t.Fatalf("v1 image decoded with an open cold head: %+v", got)
	}
	if !reflect.DeepEqual(got.ImapAddrs, imap) {
		t.Fatalf("imap addrs: %v, want %v", got.ImapAddrs, imap)
	}
	for i, u := range usage {
		want := u
		want.Age = want.LastWrite // the v1 fallback
		if got.Usage[i] != want {
			t.Fatalf("usage[%d]: %+v, want %+v", i, got.Usage[i], want)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	st := checkpointState{Serial: 1, ImapAddrs: []layout.DiskAddr{1}, Usage: []segUsage{{}}}
	buf := make([]byte, 1024)
	encodeCheckpoint(st, buf)
	buf[50] ^= 0xFF
	if _, err := decodeCheckpoint(buf); err == nil {
		t.Fatal("corrupted checkpoint decoded")
	}
	if _, err := decodeCheckpoint(make([]byte, 1024)); err == nil {
		t.Fatal("zero checkpoint decoded")
	}
}
