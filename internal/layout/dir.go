package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Directory blocks hold a packed sequence of variable-length entries:
// a uint16 record count followed by records of the form
//
//	ino (4 bytes) | name length (2 bytes) | name bytes
//
// Records are packed from offset 2 and never straddle blocks; every
// byte past the last record is zero. Lookup, insertion and removal
// work in place without decoding names: insertion appends a record at
// the end, removal slides the tail down over the removed record, and
// both re-zero the bytes past the new end, so a block is always
// byte-for-byte the packed encoding of its records. When a damaged
// block repeats a name, lookup and removal act on the first record.

// MaxNameLen is the longest permitted file name, matching BSD.
const MaxNameLen = 255

// ErrDuplicateName is returned when inserting a name the block
// already holds. It is a sentinel so that the rejection allocates
// nothing; the caller knows the name.
var ErrDuplicateName = errors.New("layout: duplicate directory entry")

// DirEntry is one name-to-inode binding.
type DirEntry struct {
	Ino  Ino
	Name string
}

// DirEntrySize returns the encoded size of an entry with the given
// name.
func DirEntrySize(name string) int { return 4 + 2 + len(name) }

// dirHeaderSize is the per-block overhead (the record count).
const dirHeaderSize = 2

// ValidName reports an error for names that cannot be stored: empty,
// too long, or containing a path separator or NUL.
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("layout: empty file name")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("layout: file name longer than %d bytes", MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("layout: file name %q contains %q", name, name[i])
		}
	}
	return nil
}

// InitDirBlock formats p as an empty directory block.
func InitDirBlock(p []byte) { clear(p) }

// dirRecordHeader is the per-record overhead (inode and name length).
const dirRecordHeader = 4 + 2

// dirRecord checks the header of record i at off and returns its name
// length.
func dirRecord(p []byte, off, i int) (int, error) {
	if off+dirRecordHeader > len(p) {
		return 0, fmt.Errorf("layout: directory block truncated at entry %d", i)
	}
	nlen := int(binary.LittleEndian.Uint16(p[off+4:]))
	if nlen == 0 || nlen > MaxNameLen || off+dirRecordHeader+nlen > len(p) {
		return 0, fmt.Errorf("layout: directory entry %d has bad name length %d", i, nlen)
	}
	return nlen, nil
}

// DirBlockEntries decodes all entries in the block.
func DirBlockEntries(p []byte) ([]DirEntry, error) {
	count, err := DirBlockCount(p)
	if err != nil {
		return nil, err
	}
	entries := make([]DirEntry, 0, count)
	off := dirHeaderSize
	for i := 0; i < count; i++ {
		nlen, err := dirRecord(p, off, i)
		if err != nil {
			return nil, err
		}
		name := p[off+dirRecordHeader : off+dirRecordHeader+nlen]
		entries = append(entries, DirEntry{Ino: Ino(binary.LittleEndian.Uint32(p[off:])), Name: string(name)})
		off += dirRecordHeader + nlen
	}
	return entries, nil
}

// dirScan validates every record of the block in place, exactly as
// DirBlockEntries does, without allocating. It returns the record
// count, the bytes in use, and the offset (-1 if none) and inode of
// the first record named name.
func dirScan(p []byte, name string) (count, used, at int, ino Ino, err error) {
	count, err = DirBlockCount(p)
	if err != nil {
		return 0, 0, -1, 0, err
	}
	at, off := -1, dirHeaderSize
	for i := 0; i < count; i++ {
		nlen, err := dirRecord(p, off, i)
		if err != nil {
			return 0, 0, -1, 0, err
		}
		if at < 0 && string(p[off+dirRecordHeader:off+dirRecordHeader+nlen]) == name {
			at, ino = off, Ino(binary.LittleEndian.Uint32(p[off:]))
		}
		off += dirRecordHeader + nlen
	}
	return count, off, at, ino, nil
}

// DirBlockInsert adds an entry to the block, returning false when the
// block has no room. It rejects invalid names, and names the block
// already holds with ErrDuplicateName.
func DirBlockInsert(p []byte, e DirEntry) (bool, error) {
	if err := ValidName(e.Name); err != nil {
		return false, err
	}
	count, used, at, _, err := dirScan(p, e.Name)
	if err != nil {
		return false, err
	}
	if at >= 0 {
		return false, ErrDuplicateName
	}
	end := used + DirEntrySize(e.Name)
	if end > len(p) {
		return false, nil
	}
	binary.LittleEndian.PutUint32(p[used:], uint32(e.Ino))
	binary.LittleEndian.PutUint16(p[used+4:], uint16(len(e.Name)))
	copy(p[used+dirRecordHeader:], e.Name)
	clear(p[end:])
	binary.LittleEndian.PutUint16(p, uint16(count+1))
	return true, nil
}

// DirBlockRemove deletes the named entry, reporting whether it was
// present.
func DirBlockRemove(p []byte, name string) (bool, error) {
	count, used, at, _, err := dirScan(p, name)
	if err != nil || at < 0 {
		return false, err
	}
	size := DirEntrySize(name)
	copy(p[at:], p[at+size:used])
	clear(p[used-size:])
	binary.LittleEndian.PutUint16(p, uint16(count-1))
	return true, nil
}

// DirBlockFind looks the name up in the block.
func DirBlockFind(p []byte, name string) (Ino, bool, error) {
	_, _, at, ino, err := dirScan(p, name)
	return ino, at >= 0, err
}

// DirBlockCount returns the number of entries in the block.
func DirBlockCount(p []byte) (int, error) {
	if len(p) < dirHeaderSize {
		return 0, fmt.Errorf("layout: directory block shorter than header")
	}
	return int(binary.LittleEndian.Uint16(p)), nil
}

// SortEntries orders entries by name, for deterministic ReadDir
// output.
func SortEntries(entries []DirEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
}
