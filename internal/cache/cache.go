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
// OldestDirty after each operation. A full cache serves a miss
// without allocating: Add recycles the block it evicts (see Block for
// the lifetime this gives every *Block).
package cache

import (
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
//
// A *Block is valid until the next Add, Remove or Clear on its cache
// unless it is pinned: Add recycles, Data and all, the block it
// evicts or else the last unpinned block Remove or RemoveIno dropped.
// A caller that holds a block across a call that may Add another (a
// read-ahead run, an indirect-block chain, a bitmap allocation) pins
// it first.
type Block struct {
	Key  Key
	Data []byte

	dirty     bool
	dirtiedAt sim.Time
	pins      int

	// link threads the block through c.lru (always) and c.dirty
	// (while dirty); see list.
	link [numLists]links
	// inoPrev and inoNext are neighbours in c.byIno[Key.Ino].
	inoPrev, inoNext *Block
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
	lru    list // front = most recent
	dirty  list // front = oldest dirtied
	// byIno heads an intrusive list (Block.inoPrev/inoNext) of every
	// cached block of each inode, of any Kind, so unlink drops a
	// file's blocks without walking the whole cache.
	byIno map[layout.Ino]*Block
	// spare is the last unpinned block Remove or RemoveIno dropped,
	// kept for the next Add that evicts nothing.
	spare *Block

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
		lru:       list{which: lruList},
		dirty:     list{which: dirtyList},
	}
}

// BlockSize returns the size of every cached block.
func (c *Cache) BlockSize() int { return c.blockSize }

// Capacity returns the cache capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return len(c.blocks) }

// DirtyCount returns the number of dirty blocks.
func (c *Cache) DirtyCount() int { return c.dirty.n }

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
	c.lru.moveToFront(b)
	return b
}

// Peek returns the cached block for k without touching LRU order or
// statistics; used by write-back scans.
func (c *Cache) Peek(k Key) *Block {
	return c.blocks[k]
}

// Add returns a zeroed block for k, inserting it and evicting clean
// unpinned LRU blocks as needed; the last block evicted is recycled as
// the new one. Adding an existing key panics — the caller must Get
// first.
func (c *Cache) Add(k Key) *Block {
	if _, exists := c.blocks[k]; exists {
		panic(fmt.Sprintf("cache: Add of existing key %v", k))
	}
	b := c.evictFor(1)
	if b == nil {
		b, c.spare = c.spare, nil
	}
	if b == nil {
		b = &Block{Data: make([]byte, c.blockSize)}
	} else {
		clear(b.Data)
	}
	b.Key = k
	c.lru.pushFront(b)
	c.blocks[k] = b
	if head := c.byIno[k.Ino]; head != nil {
		head.inoPrev, b.inoNext = b, head
	}
	c.byIno[k.Ino] = b
	c.stats.Inserted++
	return b
}

// evictFor evicts clean, unpinned LRU blocks until there is room for n
// more blocks or no evictable block remains. It returns the last block
// evicted, unlinked and free for reuse, or nil.
func (c *Cache) evictFor(n int) *Block {
	var last *Block
	for len(c.blocks)+n > c.capacity {
		victim := c.evictable()
		if victim == nil {
			break // over capacity: the FS must write back
		}
		if DebugEvict != nil {
			DebugEvict(victim.Key)
		}
		c.remove(victim)
		c.stats.Evictions++
		last = victim
	}
	return last
}

// evictable returns the least recently used clean, unpinned block,
// preferring file data over metadata (indirect and meta blocks):
// metadata is tiny, reloading it stalls behind queued segment writes,
// and real buffer caches gave it priority for the same reason.
func (c *Cache) evictable() *Block {
	var meta *Block
	for b := c.lru.tail; b != nil; b = b.link[lruList].prev {
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
	if c.dirty.n >= c.capacity {
		return true
	}
	return len(c.blocks) > c.capacity && c.evictable() == nil
}

// AboveDirtyWatermark reports whether dirty blocks exceed the given
// fraction of capacity.
func (c *Cache) AboveDirtyWatermark(frac float64) bool {
	return float64(c.dirty.n) > frac*float64(c.capacity)
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
	c.dirty.pushBack(b)
}

// MarkClean records that b has been written to disk.
func (c *Cache) MarkClean(b *Block) {
	if !b.dirty {
		return
	}
	b.dirty = false
	c.dirty.remove(b)
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
		c.release(b)
	}
}

// release keeps a block Remove or RemoveIno dropped as the spare for
// the next Add, unless a holder has it pinned.
func (c *Cache) release(b *Block) {
	if b.pins == 0 {
		c.spare = b
	}
}

// remove unlinks b from all structures.
func (c *Cache) remove(b *Block) {
	delete(c.blocks, b.Key)
	c.lru.remove(b)
	if b.dirty {
		c.dirty.remove(b)
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
	b.inoPrev, b.inoNext = nil, nil
	b.dirty = false
}

// RemoveIno drops every block of inode ino, of any Kind, discarding
// dirty contents; it returns the number removed.
func (c *Cache) RemoveIno(ino layout.Ino) int {
	n := 0
	for b := c.byIno[ino]; b != nil; b = c.byIno[ino] {
		c.remove(b)
		c.release(b)
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
	out := make([]*Block, 0, c.dirty.n)
	for b := c.dirty.head; b != nil; b = b.link[dirtyList].next {
		out = append(out, b)
	}
	return out
}

// OldestDirty returns the dirtied time of the oldest dirty block.
func (c *Cache) OldestDirty() (sim.Time, bool) {
	if c.dirty.head == nil {
		return 0, false
	}
	return c.dirty.head.dirtiedAt, true
}

// Clear drops everything, including dirty blocks — the crash
// primitive: a machine crash loses exactly the cache contents.
func (c *Cache) Clear() {
	c.blocks = make(map[Key]*Block)
	c.byIno = make(map[layout.Ino]*Block)
	c.lru = list{which: lruList}
	c.dirty = list{which: dirtyList}
	c.spare = nil
}

// Lists threaded through Block.link.
const (
	lruList = iota
	dirtyList
	numLists
)

// links is a block's position in one list.
type links struct{ prev, next *Block }

// list is an intrusive doubly linked list of blocks threaded through
// Block.link[which], so keeping the LRU and dirty orders allocates
// nothing.
type list struct {
	which      int
	head, tail *Block
	n          int
}

func (l *list) pushFront(b *Block) {
	b.link[l.which] = links{next: l.head}
	if l.head != nil {
		l.head.link[l.which].prev = b
	} else {
		l.tail = b
	}
	l.head = b
	l.n++
}

func (l *list) pushBack(b *Block) {
	b.link[l.which] = links{prev: l.tail}
	if l.tail != nil {
		l.tail.link[l.which].next = b
	} else {
		l.head = b
	}
	l.tail = b
	l.n++
}

func (l *list) remove(b *Block) {
	lk := &b.link[l.which]
	if lk.prev != nil {
		lk.prev.link[l.which].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nil {
		lk.next.link[l.which].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	*lk = links{}
	l.n--
}

func (l *list) moveToFront(b *Block) {
	if l.head != b {
		l.remove(b)
		l.pushFront(b)
	}
}
