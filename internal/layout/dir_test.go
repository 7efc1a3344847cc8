package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func freshDirBlock(size int) []byte {
	p := make([]byte, size)
	InitDirBlock(p)
	return p
}

// The reference codec: decode every entry, mutate the slice, and
// re-encode the whole block. The in-place accessors must match it in
// results, errors and bytes.

// encodeDirBlock writes entries into p; the caller guarantees they fit.
func encodeDirBlock(entries []DirEntry, p []byte) {
	InitDirBlock(p)
	binary.LittleEndian.PutUint16(p, uint16(len(entries)))
	off := dirHeaderSize
	for _, e := range entries {
		binary.LittleEndian.PutUint32(p[off:], uint32(e.Ino))
		binary.LittleEndian.PutUint16(p[off+4:], uint16(len(e.Name)))
		off += 6
		copy(p[off:], e.Name)
		off += len(e.Name)
	}
}

// dirBlockUsed returns the bytes consumed by the given entries.
func dirBlockUsed(entries []DirEntry) int {
	used := dirHeaderSize
	for _, e := range entries {
		used += DirEntrySize(e.Name)
	}
	return used
}

func refDirBlockInsert(p []byte, e DirEntry) (bool, error) {
	if err := ValidName(e.Name); err != nil {
		return false, err
	}
	entries, err := DirBlockEntries(p)
	if err != nil {
		return false, err
	}
	for _, x := range entries {
		if x.Name == e.Name {
			return false, ErrDuplicateName
		}
	}
	if dirBlockUsed(entries)+DirEntrySize(e.Name) > len(p) {
		return false, nil
	}
	encodeDirBlock(append(entries, e), p)
	return true, nil
}

func refDirBlockRemove(p []byte, name string) (bool, error) {
	entries, err := DirBlockEntries(p)
	if err != nil {
		return false, err
	}
	for i, e := range entries {
		if e.Name == name {
			encodeDirBlock(append(entries[:i], entries[i+1:]...), p)
			return true, nil
		}
	}
	return false, nil
}

func refDirBlockFind(p []byte, name string) (Ino, bool, error) {
	entries, err := DirBlockEntries(p)
	if err != nil {
		return 0, false, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e.Ino, true, nil
		}
	}
	return 0, false, nil
}

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkAgainstRef applies one operation to copies of p through the
// in-place accessors and the reference codec and fails unless results,
// errors and bytes agree. It returns the in-place result.
func checkAgainstRef(t *testing.T, p []byte, op string, e DirEntry) []byte {
	t.Helper()
	got, want := bytes.Clone(p), bytes.Clone(p)
	var g, w string
	switch op {
	case "find":
		gi, gf, ge := DirBlockFind(got, e.Name)
		wi, wf, we := refDirBlockFind(want, e.Name)
		if gi != wi || gf != wf || !sameErr(ge, we) {
			g, w = fmt.Sprint(gi, gf, ge), fmt.Sprint(wi, wf, we)
		}
	case "insert":
		gok, ge := DirBlockInsert(got, e)
		wok, we := refDirBlockInsert(want, e)
		if gok != wok || !sameErr(ge, we) {
			g, w = fmt.Sprint(gok, ge), fmt.Sprint(wok, we)
		}
	case "remove":
		gok, ge := DirBlockRemove(got, e.Name)
		wok, we := refDirBlockRemove(want, e.Name)
		if gok != wok || !sameErr(ge, we) {
			g, w = fmt.Sprint(gok, ge), fmt.Sprint(wok, we)
		}
	}
	if g != w {
		t.Fatalf("%s %q on %x: got %s, reference %s", op, e.Name, p, g, w)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %q on %x: bytes\n%x\nreference\n%x", op, e.Name, p, got, want)
	}
	return got
}

func TestDirBlockInsertFind(t *testing.T) {
	p := freshDirBlock(4096)
	ok, err := DirBlockInsert(p, DirEntry{Ino: 10, Name: "hello.txt"})
	if err != nil || !ok {
		t.Fatalf("insert: ok=%v err=%v", ok, err)
	}
	ino, found, err := DirBlockFind(p, "hello.txt")
	if err != nil || !found || ino != 10 {
		t.Fatalf("find: ino=%d found=%v err=%v", ino, found, err)
	}
	if _, found, _ := DirBlockFind(p, "other"); found {
		t.Fatal("found nonexistent name")
	}
	n, err := DirBlockCount(p)
	if err != nil || n != 1 {
		t.Fatalf("count = %d, err = %v", n, err)
	}
}

func TestDirBlockRemove(t *testing.T) {
	p := freshDirBlock(4096)
	for i := 1; i <= 5; i++ {
		if ok, err := DirBlockInsert(p, DirEntry{Ino: Ino(i), Name: fmt.Sprintf("f%d", i)}); !ok || err != nil {
			t.Fatal(err)
		}
	}
	removed, err := DirBlockRemove(p, "f3")
	if err != nil || !removed {
		t.Fatalf("remove: %v %v", removed, err)
	}
	if _, found, _ := DirBlockFind(p, "f3"); found {
		t.Fatal("f3 still present after removal")
	}
	for _, name := range []string{"f1", "f2", "f4", "f5"} {
		if _, found, _ := DirBlockFind(p, name); !found {
			t.Fatalf("%s lost after removing f3", name)
		}
	}
	removed, err = DirBlockRemove(p, "f3")
	if err != nil || removed {
		t.Fatal("second removal of f3 reported success")
	}
}

func TestDirBlockDuplicateRejected(t *testing.T) {
	p := freshDirBlock(4096)
	if _, err := DirBlockInsert(p, DirEntry{Ino: 1, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := DirBlockInsert(p, DirEntry{Ino: 2, Name: "x"}); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate insert: err = %v, want ErrDuplicateName", err)
	}
}

func TestDirBlockFull(t *testing.T) {
	p := freshDirBlock(64) // tiny block
	inserted := 0
	for i := 0; ; i++ {
		ok, err := DirBlockInsert(p, DirEntry{Ino: Ino(i + 1), Name: fmt.Sprintf("file%03d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("no entries fit in a 64-byte block")
	}
	entries, err := DirBlockEntries(p)
	if err != nil || len(entries) != inserted {
		t.Fatalf("entries = %d, want %d (err %v)", len(entries), inserted, err)
	}
}

func TestValidName(t *testing.T) {
	for _, bad := range []string{"", strings.Repeat("x", MaxNameLen+1), "a/b", "nul\x00byte"} {
		if err := ValidName(bad); err == nil {
			t.Errorf("ValidName(%q) accepted", bad)
		}
	}
	for _, good := range []string{"a", strings.Repeat("x", MaxNameLen), ".hidden", "UPPER case 日本語"} {
		if err := ValidName(good); err != nil {
			t.Errorf("ValidName(%q) rejected: %v", good, err)
		}
	}
}

func TestDirBlockDecodeCorrupt(t *testing.T) {
	// Count claims entries that are not there.
	p := freshDirBlock(64)
	p[0] = 200
	if _, err := DirBlockEntries(p); err == nil {
		t.Fatal("truncated block decoded")
	}
	if _, err := DirBlockEntries(make([]byte, 1)); err == nil {
		t.Fatal("sub-header block decoded")
	}
	if _, err := DirBlockCount(make([]byte, 1)); err == nil {
		t.Fatal("sub-header count succeeded")
	}
}

func TestSortEntries(t *testing.T) {
	e := []DirEntry{{3, "c"}, {1, "a"}, {2, "b"}}
	SortEntries(e)
	if e[0].Name != "a" || e[1].Name != "b" || e[2].Name != "c" {
		t.Fatalf("sorted = %v", e)
	}
}

// Property: a random sequence of inserts and removes applied to a
// directory block matches the same sequence applied to a map, and
// after every step the block's bytes equal the reference codec's.
func TestDirBlockMatchesMapProperty(t *testing.T) {
	type step struct {
		Insert bool
		NameID uint8
		Ino    uint16
	}
	f := func(steps []step) bool {
		p := freshDirBlock(2048)
		ref := freshDirBlock(2048)
		model := map[string]Ino{}
		for _, s := range steps {
			name := fmt.Sprintf("n%d", s.NameID)
			if s.Insert {
				e := DirEntry{Ino: Ino(s.Ino), Name: name}
				ok, err := DirBlockInsert(p, e)
				_, _ = refDirBlockInsert(ref, e)
				if _, dup := model[name]; dup {
					if !errors.Is(err, ErrDuplicateName) {
						return false // duplicate must be rejected
					}
				} else if err != nil {
					return false
				} else if ok {
					model[name] = Ino(s.Ino)
				}
			} else {
				removed, err := DirBlockRemove(p, name)
				_, _ = refDirBlockRemove(ref, name)
				if err != nil {
					return false
				}
				_, inModel := model[name]
				if removed != inModel {
					return false
				}
				delete(model, name)
			}
			if !bytes.Equal(p, ref) {
				return false
			}
		}
		entries, err := DirBlockEntries(p)
		if err != nil || len(entries) != len(model) {
			return false
		}
		for _, e := range entries {
			if model[e.Name] != e.Ino {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fullDirBlock returns a 4 KB block filled with names of mixed lengths
// until the next one does not fit, and the names in order.
func fullDirBlock(tb testing.TB) ([]byte, []string) {
	tb.Helper()
	p := freshDirBlock(4096)
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("file-%d%s", i, strings.Repeat("x", i%23))
		ok, err := DirBlockInsert(p, DirEntry{Ino: Ino(i + 1), Name: name})
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return p, names
		}
		names = append(names, name)
	}
}

// The in-place accessors must not allocate on a well-formed block:
// each create scans every directory block.
func TestDirBlockAccessorsDoNotAllocate(t *testing.T) {
	p, names := fullDirBlock(t)
	last, k := names[len(names)-1], 0
	cases := []struct {
		name string
		fn   func()
	}{
		{"find-hit", func() { _, _, _ = DirBlockFind(p, last) }},
		{"find-miss", func() { _, _, _ = DirBlockFind(p, "absent") }},
		{"insert-full", func() { _, _ = DirBlockInsert(p, DirEntry{Ino: 1, Name: "absent"}) }},
		{"insert-duplicate", func() { _, _ = DirBlockInsert(p, DirEntry{Ino: 1, Name: last}) }},
		{"remove-miss", func() { _, _ = DirBlockRemove(p, "absent") }},
		// Remove the first record (the longest tail shift), then
		// append it again, leaving the block full with the next name
		// first.
		{"remove-insert", func() {
			first := names[k%len(names)]
			if ok, err := DirBlockRemove(p, first); !ok || err != nil {
				t.Fatalf("remove %q: %v %v", first, ok, err)
			}
			if ok, err := DirBlockInsert(p, DirEntry{Ino: 1, Name: first}); !ok || err != nil {
				t.Fatalf("insert %q: %v %v", first, ok, err)
			}
			k++
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
}

var benchIno Ino

func BenchmarkDirBlockFind(b *testing.B) {
	p, names := fullDirBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIno, _, _ = DirBlockFind(p, names[i%len(names)])
	}
}

// The Insert and Remove benchmarks restore the block from a template
// each iteration, so they include one 4 KB copy.

func BenchmarkDirBlockInsert(b *testing.B) {
	full, names := fullDirBlock(b)
	last := names[len(names)-1]
	if _, err := DirBlockRemove(full, last); err != nil {
		b.Fatal(err)
	}
	p := bytes.Clone(full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p, full)
		if ok, err := DirBlockInsert(p, DirEntry{Ino: 1, Name: last}); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkDirBlockRemove(b *testing.B) {
	full, names := fullDirBlock(b)
	p := bytes.Clone(full)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p, full)
		if ok, err := DirBlockRemove(p, names[i%len(names)]); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}
