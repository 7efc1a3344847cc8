package namei

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/vfs"
)

const testBlockSize = 4096

// call is one DirBlock request seen by fakeDir.
type call struct {
	lbn  int64
	grow bool
}

// fakeDir is an in-memory Blocks source for one directory. A nil
// entry in blocks is a hole. With logging set it records every
// DirBlock call; otherwise it allocates only when growing.
type fakeDir struct {
	blocks  []*cache.Block
	dirtied int
	logging bool
	log     []call
}

func (f *fakeDir) DirBlock(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error) {
	if f.logging {
		f.log = append(f.log, call{lbn, grow})
	}
	if grow {
		if lbn != int64(len(f.blocks)) {
			return nil, fmt.Errorf("grow at block %d of a %d-block directory", lbn, len(f.blocks))
		}
		b := &cache.Block{Data: make([]byte, testBlockSize)}
		f.blocks = append(f.blocks, b)
		return b, nil
	}
	return f.blocks[lbn], nil
}

func (f *fakeDir) Dirty(*cache.Block) { f.dirtied++ }

// newDir returns an engine over an empty directory.
func newDir() (*Engine, *fakeDir, *layout.Inode) {
	f := &fakeDir{}
	dir := &layout.Inode{Ino: 7, Mode: layout.ModeDir | 0o755}
	return New(f, testBlockSize), f, dir
}

// name returns the i'th test name; all have the same length, so a
// block too full for one is too full for any.
func name(i int) string { return fmt.Sprintf("file%06d", i) }

// fill inserts name(0), name(1), ... until the directory's n blocks
// are full, returning the names inserted. The hint ends on block n-1.
func fill(t testing.TB, e *Engine, f *fakeDir, dir *layout.Inode, n int64) []string {
	t.Helper()
	var names []string
	for i := 0; ; i++ {
		if _, err := e.Insert(dir, name(i), layout.Ino(100+i)); err != nil {
			t.Fatal(err)
		}
		if e.blocks(dir) > n {
			// Undo the insert that grew block n.
			dir.Size -= testBlockSize
			f.blocks = f.blocks[:n]
			delete(e.names[dir.Ino], name(i))
			e.hint[dir.Ino] = n - 1
			return names
		}
		names = append(names, name(i))
	}
}

func TestEngineCallSequence(t *testing.T) {
	e, f, dir := newDir()
	names := fill(t, e, f, dir, 3)
	e.Forget(dir.Ino)
	f.logging = true

	// A lookup miss scans every block in order.
	if _, found, err := e.Lookup(dir, "absent"); err != nil || found {
		t.Fatalf("Lookup(absent) = %v, %v", found, err)
	}
	// An insert with no hint starts at block 0 and grows at the end.
	if _, err := e.Insert(dir, name(900000), 9); err != nil {
		t.Fatal(err)
	}
	// A lookup of a name in block 1 stops there and caches it, so the
	// remove goes straight to block 1.
	mid := names[len(names)/2]
	if _, found, err := e.Lookup(dir, mid); err != nil || !found {
		t.Fatalf("Lookup(%s) = %v, %v", mid, found, err)
	}
	if _, err := e.Remove(dir, mid); err != nil {
		t.Fatal(err)
	}
	want := []call{
		{0, false}, {1, false}, {2, false},
		{0, false}, {1, false}, {2, false}, {3, true},
		{0, false}, {1, false},
		{1, false},
	}
	if fmt.Sprint(f.log) != fmt.Sprint(want) {
		t.Fatalf("DirBlock calls\n got %v\nwant %v", f.log, want)
	}
	if got := e.blocks(dir); got != 4 {
		t.Fatalf("directory has %d blocks after growth, want 4", got)
	}
}

func TestHoleFailsEveryOp(t *testing.T) {
	e, f, dir := newDir()
	f.blocks = []*cache.Block{nil}
	dir.Size = testBlockSize
	ops := []struct {
		name string
		run  func() error
	}{
		{"Lookup", func() error { _, _, err := e.Lookup(dir, "x"); return err }},
		{"Insert", func() error { _, err := e.Insert(dir, "x", 9); return err }},
		{"Remove", func() error { _, err := e.Remove(dir, "x"); return err }},
		{"Entries", func() error { _, err := e.Entries(dir); return err }},
		{"Empty", func() error { _, err := e.Empty(dir); return err }},
	}
	for _, op := range ops {
		err := op.run()
		if err == nil || !strings.Contains(err.Error(), "directory 7 has a hole at block 0") {
			t.Errorf("%s over a hole: err = %v", op.name, err)
		}
	}
	if f.dirtied != 0 {
		t.Fatalf("%d blocks dirtied over a hole", f.dirtied)
	}
}

func TestUncachedNamesBeyondLimit(t *testing.T) {
	e, _, dir := newDir()
	n := nameCacheDirLimit + 10
	for i := 0; i < n; i++ {
		if _, err := e.Insert(dir, fmt.Sprintf("n%06d", i), layout.Ino(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.names[dir.Ino]); got != nameCacheDirLimit {
		t.Fatalf("name cache holds %d entries, want the limit %d", got, nameCacheDirLimit)
	}
	last := fmt.Sprintf("n%06d", n-1)
	if _, ok := e.names[dir.Ino][last]; ok {
		t.Fatalf("%s cached beyond the limit", last)
	}
	ino, found, err := e.Lookup(dir, last)
	if err != nil || !found || ino != layout.Ino(n+1) {
		t.Fatalf("Lookup(%s) = %d, %v, %v", last, ino, found, err)
	}
	if _, err := e.Remove(dir, last); err != nil {
		t.Fatal(err)
	}
	if _, found, err := e.Lookup(dir, last); err != nil || found {
		t.Fatalf("Lookup after Remove = %v, %v", found, err)
	}
	if _, err := e.Remove(dir, last); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("second Remove err = %v, want ErrNotExist", err)
	}
}

func TestRemoveRescansStaleCacheEntry(t *testing.T) {
	e, f, dir := newDir()
	names := fill(t, e, f, dir, 3)
	first := names[0] // lives in block 0
	ent := e.names[dir.Ino][first]
	e.names[dir.Ino][first] = nameEntry{ino: ent.ino, lbn: 2}
	f.logging = true
	b, err := e.Remove(dir, first)
	if err != nil {
		t.Fatal(err)
	}
	if b != f.blocks[0] {
		t.Fatal("Remove returned a block other than the one holding the entry")
	}
	want := []call{{2, false}, {0, false}}
	if fmt.Sprint(f.log) != fmt.Sprint(want) {
		t.Fatalf("DirBlock calls %v, want %v", f.log, want)
	}
	if _, found, err := e.Lookup(dir, first); err != nil || found {
		t.Fatalf("Lookup after Remove = %v, %v", found, err)
	}
}

func TestInsertReusesSpaceBelowHint(t *testing.T) {
	e, f, dir := newDir()
	names := fill(t, e, f, dir, 3)
	if _, err := e.Insert(dir, name(900000), 9); err != nil {
		t.Fatal(err)
	}
	if e.hint[dir.Ino] != 3 {
		t.Fatalf("hint = %d after growth, want 3", e.hint[dir.Ino])
	}
	if _, err := e.Remove(dir, names[0]); err != nil {
		t.Fatal(err)
	}
	if e.hint[dir.Ino] != 0 {
		t.Fatalf("hint = %d after freeing block 0, want 0", e.hint[dir.Ino])
	}
	b, err := e.Insert(dir, name(900001), 10)
	if err != nil {
		t.Fatal(err)
	}
	if b != f.blocks[0] || e.blocks(dir) != 4 {
		t.Fatalf("insert went to a new or later block (dir has %d blocks)", e.blocks(dir))
	}
	entries, err := e.Entries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names)+1 {
		t.Fatalf("Entries = %d, want %d", len(entries), len(names)+1)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Name >= entries[i].Name {
			t.Fatalf("Entries out of order at %d", i)
		}
	}
}

// TestEngineDoesNotAllocate guards the smallfile workload's
// allocations per op: a name cache hit, a scan that misses, and an
// insert into an existing block followed by its removal must not
// allocate.
func TestEngineDoesNotAllocate(t *testing.T) {
	e, f, dir := newDir()
	names := fill(t, e, f, dir, 3)
	if _, err := e.Remove(dir, names[len(names)-1]); err != nil {
		t.Fatal(err) // leave room in the last block
	}
	cached := names[0]
	cases := []struct {
		name string
		run  func()
	}{
		{"Lookup hit", func() {
			if _, found, err := e.Lookup(dir, cached); err != nil || !found {
				t.Fatal("cached name not found")
			}
		}},
		{"Lookup miss", func() {
			if _, found, err := e.Lookup(dir, "absent"); err != nil || found {
				t.Fatal("absent name found")
			}
		}},
		{"Insert+Remove", func() {
			if _, err := e.Insert(dir, "fresh", 99); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Remove(dir, "fresh"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
	if got := e.blocks(dir); got != 3 {
		t.Fatalf("directory grew to %d blocks", got)
	}
}
