package layout

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Decoders for inode records and directory blocks parse raw image
// bytes; they must never panic regardless of input.

func FuzzDecodeInode(f *testing.F) {
	in := NewInode(9, ModeFile|0o644)
	in.Size = 12345
	buf := make([]byte, InodeSize)
	in.Encode(buf)
	f.Add(buf)
	f.Add(make([]byte, InodeSize))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeInode(data)
		if err == nil && rec.Ino != 9 && len(data) >= InodeSize {
			// Any checksum-valid record is acceptable; just ensure
			// the struct is usable.
			_ = rec.Allocated()
		}
	})
}

// FuzzDirBlock checks the in-place accessors against the reference
// codec on arbitrary blocks: same results, same errors, same bytes.
func FuzzDirBlock(f *testing.F) {
	blk := make([]byte, 512)
	InitDirBlock(blk)
	if _, err := DirBlockInsert(blk, DirEntry{Ino: 4, Name: "seed"}); err != nil {
		f.Fatal(err)
	}
	f.Add(blk, "seed", uint32(5))
	f.Add(make([]byte, 512), "x", uint32(1))
	f.Add([]byte{0xFF, 0xFF}, "x", uint32(1))
	// Non-zero bytes past the last record.
	tail := bytes.Clone(blk)
	for i := 12; i < len(tail); i++ {
		tail[i] = byte(i)
	}
	f.Add(tail, "new", uint32(7))
	// The same name twice: Find and Remove act on the first.
	dup := make([]byte, 64)
	encodeDirBlock([]DirEntry{{1, "a"}, {2, "dup"}, {3, "dup"}, {4, "b"}}, dup)
	f.Add(dup, "dup", uint32(9))
	// A matching record followed by a bad name length: undecodable.
	bad := bytes.Clone(dup)
	binary.LittleEndian.PutUint16(bad[dirHeaderSize+DirEntrySize("a")+4:], 0)
	if _, err := DirBlockEntries(bad); err == nil {
		f.Fatal("corrupted seed still decodes")
	}
	f.Add(bad, "a", uint32(2))
	f.Fuzz(func(t *testing.T, data []byte, name string, ino uint32) {
		e := DirEntry{Ino: Ino(ino), Name: name}
		for _, op := range []string{"find", "insert", "remove"} {
			checkAgainstRef(t, data, op, e)
		}
		entries, err := DirBlockEntries(data)
		if err != nil {
			return
		}
		// Every decoded entry must be found again.
		for _, e := range entries {
			if _, found, err := DirBlockFind(data, e.Name); !found || err != nil {
				t.Fatalf("Find(%q) on decodable block: found=%v err=%v", e.Name, found, err)
			}
		}
	})
}
