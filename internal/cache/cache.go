// Package cache implements the file/buffer cache shared by both file
// systems. The paper assigns the cache two roles: absorbing reads (so
// that disk traffic is write-dominated) and, for LFS, acting as the
// write buffer that accumulates many small modifications until they
// can be written as one large sequential transfer ("speed matching
// between the CPU and disk subsystem", §4.1).
//
// The cache is a fixed-capacity block store keyed by (namespace,
// inode, offset), with LRU eviction of clean blocks, explicit dirty
// tracking in dirtied order (for the 30-second age write-back policy
// of §4.3.5), and pinning for blocks mid-operation. Eviction never
// touches dirty or pinned blocks: write-back policy belongs to the
// owning file system, which consults DirtyCount, Overfull, and
// OldestDirty after each operation.
package cache

import (
	"container/list"
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// Kind is the namespace of a cache key, so different block spaces
// (file data, FFS disk blocks, LFS inode-map blocks) cannot collide.
type Kind uint8

// Key namespaces used across the repository.
const (
	// KindFile is file and directory data, keyed by (ino, lbn).
	KindFile Kind = iota
	// KindIndirect is indirect pointer blocks, keyed by (ino, lbn
	// of the first block the indirect block maps, level encoded by
	// the owner).
	KindIndirect
	// KindMeta is file-system-global metadata keyed by an
	// FS-defined offset (FFS: disk block address; LFS: inode map
	// block index).
	KindMeta
)

// Key identifies a cached block.
type Key struct {
	Kind Kind
	Ino  layout.Ino
	Off  int64
}

// String formats the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("{kind=%d ino=%d off=%d}", k.Kind, k.Ino, k.Off)
}

// Block is one cached block. Data always has the cache's block size.
type Block struct {
	Key  Key
	Data []byte

	dirty     bool
	dirtiedAt sim.Time
	pins      int

	lruElem   *list.Element // position in c.lru
	dirtyElem *list.Element // position in c.dirty when dirty

	inoPrev, inoNext *Block // neighbours in c.byIno[Key.Ino]
}

// Dirty reports whether the block has unwritten modifications.
func (b *Block) Dirty() bool { return b.dirty }

// DirtiedAt returns when the block was first dirtied (valid only while
// Dirty).
func (b *Block) DirtiedAt() sim.Time { return b.dirtiedAt }

// Pinned reports whether the block is pinned against eviction.
func (b *Block) Pinned() bool { return b.pins > 0 }

// Stats counts cache activity.
type Stats struct {
	Hits, Misses int64
	Evictions    int64
	Inserted     int64
}

// HitRate returns the fraction of lookups served from the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// DebugEvict, when non-nil, is called with every evicted key (test
// instrumentation only).
var DebugEvict func(Key)

// Cache is a fixed-capacity block cache. Not safe for concurrent use;
// the owning file system serialises access.
type Cache struct {
	blockSize int
	capacity  int

	blocks map[Key]*Block
	lru    *list.List // front = most recent; values are *Block
	dirty  *list.List // front = oldest dirtied; values are *Block
	// byIno heads an intrusive list (Block.inoPrev/inoNext) of every
	// cached block of each inode, of any Kind, so unlink drops a
	// file's blocks without walking the whole cache.
	byIno map[layout.Ino]*Block

	stats Stats
}

// New returns an empty cache of capacity blocks, each blockSize bytes.
func New(capacity, blockSize int) *Cache {
	if capacity <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("cache: invalid capacity %d or block size %d", capacity, blockSize))
	}
	return &Cache{
		blockSize: blockSize,
		capacity:  capacity,
		blocks:    make(map[Key]*Block),
		byIno:     make(map[layout.Ino]*Block),
		lru:       list.New(),
		dirty:     list.New(),
	}
}

// BlockSize returns the size of every cached block.
func (c *Cache) BlockSize() int { return c.blockSize }

// Capacity returns the cache capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return len(c.blocks) }

// DirtyCount returns the number of dirty blocks.
func (c *Cache) DirtyCount() int { return c.dirty.Len() }

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Get returns the cached block for k, or nil. A hit refreshes the
// block's LRU position.
func (c *Cache) Get(k Key) *Block {
	b, ok := c.blocks[k]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.lru.MoveToFront(b.lruElem)
	return b
}

// Peek returns the cached block for k without touching LRU order or
// statistics; used by write-back scans.
func (c *Cache) Peek(k Key) *Block {
	return c.blocks[k]
}

// Add allocates a zeroed block for k, inserting it and evicting clean
// unpinned LRU blocks as needed. Adding an existing key panics — the
// caller must Get first.
func (c *Cache) Add(k Key) *Block {
	if _, exists := c.blocks[k]; exists {
		panic(fmt.Sprintf("cache: Add of existing key %v", k))
	}
	c.evictFor(1)
	b := &Block{Key: k, Data: make([]byte, c.blockSize)}
	b.lruElem = c.lru.PushFront(b)
	c.blocks[k] = b
	if head := c.byIno[k.Ino]; head != nil {
		head.inoPrev, b.inoNext = b, head
	}
	c.byIno[k.Ino] = b
	c.stats.Inserted++
	return b
}

// evictFor evicts clean, unpinned LRU blocks until there is room for n
// more blocks or no evictable block remains.
func (c *Cache) evictFor(n int) {
	for len(c.blocks)+n > c.capacity {
		victim := c.evictable()
		if victim == nil {
			return // over capacity: the FS must write back
		}
		if DebugEvict != nil {
			DebugEvict(victim.Key)
		}
		c.remove(victim)
		c.stats.Evictions++
	}
}

// evictable returns the least recently used clean, unpinned block,
// preferring file data over metadata (indirect and meta blocks):
// metadata is tiny, reloading it stalls behind queued segment writes,
// and real buffer caches gave it priority for the same reason.
func (c *Cache) evictable() *Block {
	var meta *Block
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		b := e.Value.(*Block)
		if b.dirty || b.pins > 0 {
			continue
		}
		if b.Key.Kind == KindFile {
			return b
		}
		if meta == nil {
			meta = b
		}
	}
	return meta
}

// Overfull reports whether unevictable (dirty) blocks fill the whole
// capacity, or the cache exceeds capacity with nothing left to evict —
// the condition that forces a write-back (the "cache full" trigger of
// §4.3.5).
func (c *Cache) Overfull() bool {
	if c.dirty.Len() >= c.capacity {
		return true
	}
	return len(c.blocks) > c.capacity && c.evictable() == nil
}

// AboveDirtyWatermark reports whether dirty blocks exceed the given
// fraction of capacity.
func (c *Cache) AboveDirtyWatermark(frac float64) bool {
	return float64(c.dirty.Len()) > frac*float64(c.capacity)
}

// MarkDirty records a modification to b at the given time. Re-dirtying
// keeps the original dirtied time, matching delayed write-back
// semantics (age is measured from first modification).
func (c *Cache) MarkDirty(b *Block, now sim.Time) {
	if b.dirty {
		return
	}
	b.dirty = true
	b.dirtiedAt = now
	b.dirtyElem = c.dirty.PushBack(b)
}

// MarkClean records that b has been written to disk.
func (c *Cache) MarkClean(b *Block) {
	if !b.dirty {
		return
	}
	b.dirty = false
	c.dirty.Remove(b.dirtyElem)
	b.dirtyElem = nil
}

// Pin protects b from eviction until a matching Unpin.
func (c *Cache) Pin(b *Block) { b.pins++ }

// Unpin releases one pin.
func (c *Cache) Unpin(b *Block) {
	if b.pins == 0 {
		panic("cache: Unpin of unpinned block")
	}
	b.pins--
}

// Remove drops the block for k from the cache, dirty or not. Dropping
// a dirty block discards its modifications (used by truncate/unlink).
func (c *Cache) Remove(k Key) {
	if b, ok := c.blocks[k]; ok {
		c.remove(b)
	}
}

// remove unlinks b from all structures.
func (c *Cache) remove(b *Block) {
	delete(c.blocks, b.Key)
	c.lru.Remove(b.lruElem)
	if b.dirty {
		c.dirty.Remove(b.dirtyElem)
	}
	switch {
	case b.inoPrev != nil:
		b.inoPrev.inoNext = b.inoNext
	case b.inoNext != nil:
		c.byIno[b.Key.Ino] = b.inoNext
	default:
		delete(c.byIno, b.Key.Ino)
	}
	if b.inoNext != nil {
		b.inoNext.inoPrev = b.inoPrev
	}
	b.lruElem, b.dirtyElem = nil, nil
	b.inoPrev, b.inoNext = nil, nil
	b.dirty = false
}

// RemoveIno drops every block of inode ino, of any Kind, discarding
// dirty contents; it returns the number removed.
func (c *Cache) RemoveIno(ino layout.Ino) int {
	n := 0
	for b := c.byIno[ino]; b != nil; b = c.byIno[ino] {
		c.remove(b)
		n++
	}
	return n
}

// DropClean evicts every clean, unpinned block, simulating the
// paper's "flush the file cache" step between benchmark phases.
func (c *Cache) DropClean() int {
	var victims []*Block
	//lfslint:allow maporder eviction order does not matter: every clean block is dropped and the final cache state is identical for any order
	for k, b := range c.blocks {
		if !b.dirty && b.pins == 0 {
			_ = k
			victims = append(victims, b)
		}
	}
	for _, b := range victims {
		c.remove(b)
		c.stats.Evictions++
	}
	return len(victims)
}

// DirtyBlocks returns the dirty blocks in dirtied order (oldest
// first). The slice is a snapshot; callers may MarkClean entries while
// iterating it.
func (c *Cache) DirtyBlocks() []*Block {
	out := make([]*Block, 0, c.dirty.Len())
	for e := c.dirty.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*Block))
	}
	return out
}

// OldestDirty returns the dirtied time of the oldest dirty block.
func (c *Cache) OldestDirty() (sim.Time, bool) {
	e := c.dirty.Front()
	if e == nil {
		return 0, false
	}
	return e.Value.(*Block).dirtiedAt, true
}

// Clear drops everything, including dirty blocks — the crash
// primitive: a machine crash loses exactly the cache contents.
func (c *Cache) Clear() {
	c.blocks = make(map[Key]*Block)
	c.byIno = make(map[layout.Ino]*Block)
	c.lru.Init()
	c.dirty.Init()
}
