package core

import (
	"fmt"

	"lfs/internal/cache"
	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// dirSource adapts FS to namei.Blocks. The engine calls it only from
// FS methods running with fs.mu held (the adapter type keeps it off
// the FS method set lockcheck audits). Nothing is written
// synchronously: a dirtied directory block rides the next segment
// write (Figure 2).
type dirSource struct{ fs *FS }

func (s dirSource) DirBlock(dir *layout.Inode, lbn int64, grow bool) (*cache.Block, error) {
	return s.fs.getDataBlock(dir, lbn, grow)
}

func (s dirSource) Dirty(b *cache.Block) { s.fs.bc.MarkDirty(b, s.fs.clock.Now()) }

// resolve walks path components from the root.
func (fs *FS) resolve(parts []string) (*layout.Inode, error) {
	in, err := fs.getInode(layout.RootIno)
	if err != nil {
		return nil, err
	}
	for i, name := range parts {
		fs.cpu.Charge(fs.cfg.Costs.PathComponent)
		if !in.Mode.IsDir() {
			return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts[:i])
		}
		ino, found, err := fs.dirs.Lookup(in, name)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", vfs.ErrNotExist, parts[:i+1])
		}
		in, err = fs.getInode(ino)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// resolveDir resolves parts and requires a directory.
func (fs *FS) resolveDir(parts []string) (*layout.Inode, error) {
	in, err := fs.resolve(parts)
	if err != nil {
		return nil, err
	}
	if !in.Mode.IsDir() {
		return nil, fmt.Errorf("%w: %q", vfs.ErrNotDir, parts)
	}
	return in, nil
}
