// Package namei is the directory engine LFS and FFS share. The paper
// sets Sprite LFS against SunOS FFS with the same UNIX directory
// semantics; only the write-out of a dirtied directory block differs
// (LFS logs it with the next segment, FFS forces it to disk before
// the call returns). Everything else lives here: the per-directory
// name cache (the UNIX namei cache both kernels relied on), the
// insert hint, and the block scans behind lookup, insert, remove,
// listing and the emptiness check.
//
// The engine reaches directory blocks only through a Blocks source
// and issues exactly one DirBlock call per block it visits, so each
// file system keeps charging its own simulated CPU, cache touches and
// disk requests. A hole in a directory is corruption: every operation
// that meets one fails.
package namei

import (
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// Blocks is a file system's access to directory data blocks.
type Blocks interface {
	// DirBlock returns data block lbn of dir through the buffer
	// cache. With grow set the block is being appended and need not
	// be read. A nil block with a nil error is a hole.
	DirBlock(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error)
	// Dirty marks a modified directory block for write-out.
	Dirty(b *cache.Block)
}

// nameEntry is one name cache record: the child's inode number and
// the directory data block holding the entry. Entries never migrate
// between blocks (inserts and removals rewrite a single block), so
// the cached block number stays valid for the entry's lifetime.
type nameEntry struct {
	ino layout.Ino
	lbn int64
}

// nameCacheDirLimit bounds one directory's cached entries.
const nameCacheDirLimit = 32768

// Engine implements directory operations over a Blocks source. It is
// not safe for concurrent use; each file system calls it with its
// own lock held.
type Engine struct {
	src       Blocks
	blockSize int
	// names is the name cache: per directory, name → (child inode,
	// directory block holding the entry). Without it the paper's
	// 10000-files-in-one-directory workload turns quadratic.
	names map[layout.Ino]map[string]nameEntry
	// hint remembers, per directory, the first data block that may
	// have room for a new entry, making append-mostly insertion O(1).
	hint map[layout.Ino]int64
}

// New returns an engine reading directory blocks of blockSize bytes
// from src.
func New(src Blocks, blockSize int) *Engine {
	return &Engine{
		src:       src,
		blockSize: blockSize,
		names:     make(map[layout.Ino]map[string]nameEntry),
		hint:      make(map[layout.Ino]int64),
	}
}

// blocks returns the directory's data block count.
func (e *Engine) blocks(dir *layout.Inode) int64 {
	return layout.BlocksForSize(dir.Size, e.blockSize)
}

// block fetches block lbn of dir, turning a hole into an error.
func (e *Engine) block(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error) {
	b, err := e.src.DirBlock(dir, lbn, grow)
	if err == nil && b == nil {
		err = fmt.Errorf("namei: directory %d has a hole at block %d", dir.Ino, lbn)
	}
	return b, err
}

// cacheName records name→(ino,lbn) for the directory.
func (e *Engine) cacheName(dir layout.Ino, name string, ino layout.Ino, lbn int64) {
	m := e.names[dir]
	if m == nil {
		m = make(map[string]nameEntry)
		e.names[dir] = m
	}
	if len(m) < nameCacheDirLimit {
		m[name] = nameEntry{ino: ino, lbn: lbn}
	}
}

// Forget drops a removed directory's name cache and hint; its inode
// number may be reused.
func (e *Engine) Forget(dir layout.Ino) {
	delete(e.names, dir)
	delete(e.hint, dir)
}

// Lookup searches the directory for name, consulting the name cache
// first.
func (e *Engine) Lookup(dir *layout.Inode, name string) (layout.Ino, bool, error) {
	if ent, ok := e.names[dir.Ino][name]; ok {
		return ent.ino, true, nil
	}
	for lbn := int64(0); lbn < e.blocks(dir); lbn++ {
		b, err := e.block(dir, lbn, false)
		if err != nil {
			return 0, false, err
		}
		ino, found, err := layout.DirBlockFind(b.Data, name)
		if err != nil {
			return 0, false, err
		}
		if found {
			e.cacheName(dir.Ino, name, ino, lbn)
			return ino, true, nil
		}
	}
	return 0, false, nil
}

// Insert adds name→ino, growing the directory by one block when no
// block from the hint on has room, and returns the modified block.
// Growth changes dir.Size; the caller writes the directory inode.
func (e *Engine) Insert(dir *layout.Inode, name string, ino layout.Ino) (*cache.Block, error) {
	ent := layout.DirEntry{Ino: ino, Name: name}
	for lbn := e.hint[dir.Ino]; lbn < e.blocks(dir); lbn++ {
		b, err := e.block(dir, lbn, false)
		if err != nil {
			return nil, err
		}
		ok, err := layout.DirBlockInsert(b.Data, ent)
		if err != nil {
			return nil, err
		}
		if ok {
			e.inserted(b, dir.Ino, name, ino, lbn)
			return b, nil
		}
	}
	lbn := e.blocks(dir)
	b, err := e.block(dir, lbn, true)
	if err != nil {
		return nil, err
	}
	layout.InitDirBlock(b.Data)
	ok, err := layout.DirBlockInsert(b.Data, ent)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("namei: entry %q does not fit in an empty block", name)
	}
	dir.Size += uint64(e.blockSize)
	e.inserted(b, dir.Ino, name, ino, lbn)
	return b, nil
}

// inserted records a successful insert into block lbn.
func (e *Engine) inserted(b *cache.Block, dir layout.Ino, name string, ino layout.Ino, lbn int64) {
	e.src.Dirty(b)
	e.hint[dir] = lbn
	e.cacheName(dir, name, ino, lbn)
}

// Remove deletes name from the directory and returns the modified
// block. It starts at the block the name cache points to and rescans
// from block 0 if that entry was stale.
func (e *Engine) Remove(dir *layout.Inode, name string) (*cache.Block, error) {
	start := int64(0)
	if ent, ok := e.names[dir.Ino][name]; ok {
		start = ent.lbn
	}
	for pass := 0; pass < 2; pass++ {
		for lbn := start; lbn < e.blocks(dir); lbn++ {
			b, err := e.block(dir, lbn, false)
			if err != nil {
				return nil, err
			}
			removed, err := layout.DirBlockRemove(b.Data, name)
			if err != nil {
				return nil, err
			}
			if removed {
				e.src.Dirty(b)
				delete(e.names[dir.Ino], name)
				// Freed space may precede the insert hint.
				if hint, ok := e.hint[dir.Ino]; ok && lbn < hint {
					e.hint[dir.Ino] = lbn
				}
				return b, nil
			}
		}
		if start == 0 {
			break // full scan already done
		}
		start = 0
	}
	return nil, fmt.Errorf("%w: %q", vfs.ErrNotExist, name)
}

// Entries lists the directory in name order.
func (e *Engine) Entries(dir *layout.Inode) ([]layout.DirEntry, error) {
	var all []layout.DirEntry
	for lbn := int64(0); lbn < e.blocks(dir); lbn++ {
		b, err := e.block(dir, lbn, false)
		if err != nil {
			return nil, err
		}
		entries, err := layout.DirBlockEntries(b.Data)
		if err != nil {
			return nil, err
		}
		all = append(all, entries...)
	}
	layout.SortEntries(all)
	return all, nil
}

// Empty reports whether the directory has no entries.
func (e *Engine) Empty(dir *layout.Inode) (bool, error) {
	for lbn := int64(0); lbn < e.blocks(dir); lbn++ {
		b, err := e.block(dir, lbn, false)
		if err != nil {
			return false, err
		}
		n, err := layout.DirBlockCount(b.Data)
		if err != nil {
			return false, err
		}
		if n > 0 {
			return false, nil
		}
	}
	return true, nil
}
