package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

func key(ino int, off int64) Key {
	return Key{Kind: KindFile, Ino: layout.Ino(ino), Off: off}
}

func TestAddGet(t *testing.T) {
	c := New(4, 4096)
	b := c.Add(key(1, 0))
	if len(b.Data) != 4096 {
		t.Fatalf("block size %d", len(b.Data))
	}
	b.Data[0] = 42
	got := c.Get(key(1, 0))
	if got == nil || got.Data[0] != 42 {
		t.Fatal("Get did not return the added block")
	}
	if c.Get(key(1, 1)) != nil {
		t.Fatal("Get returned a block for a missing key")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserted != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	c := New(4, 512)
	c.Add(key(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	c.Add(key(1, 0))
}

func TestInvalidNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid New did not panic")
		}
	}()
	New(0, 4096)
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3, 512)
	c.Add(key(1, 0))
	c.Add(key(2, 0))
	c.Add(key(3, 0))
	// Touch 1 so 2 becomes LRU.
	c.Get(key(1, 0))
	c.Add(key(4, 0))
	if c.Get(key(2, 0)) != nil {
		t.Fatal("LRU block 2 survived eviction")
	}
	for _, k := range []Key{key(1, 0), key(3, 0), key(4, 0)} {
		if c.Peek(k) == nil {
			t.Fatalf("block %v evicted out of order", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestDirtyBlocksNotEvicted(t *testing.T) {
	c := New(2, 512)
	b1 := c.Add(key(1, 0))
	c.MarkDirty(b1, 0)
	b2 := c.Add(key(2, 0))
	c.MarkDirty(b2, 0)
	c.Add(key(3, 0)) // over capacity, but nothing evictable
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dirty blocks must not be evicted)", c.Len())
	}
	if !c.Overfull() {
		t.Fatal("cache with no evictable block not reported Overfull")
	}
	c.MarkClean(b1)
	c.Add(key(4, 0)) // now b1 is evictable
	if c.Peek(key(1, 0)) != nil {
		t.Fatal("clean block not evicted when over capacity")
	}
}

func TestPinnedBlocksNotEvicted(t *testing.T) {
	c := New(1, 512)
	b := c.Add(key(1, 0))
	c.Pin(b)
	c.Add(key(2, 0))
	if c.Peek(key(1, 0)) == nil {
		t.Fatal("pinned block evicted")
	}
	c.Unpin(b)
	if b.Pinned() {
		t.Fatal("block still pinned after Unpin")
	}
	c.Add(key(3, 0))
	if c.Peek(key(1, 0)) != nil && c.Peek(key(2, 0)) != nil {
		t.Fatal("nothing evicted after unpin")
	}
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	c := New(1, 512)
	b := c.Add(key(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unpinned block did not panic")
		}
	}()
	c.Unpin(b)
}

func TestDirtyTracking(t *testing.T) {
	c := New(8, 512)
	b1 := c.Add(key(1, 0))
	b2 := c.Add(key(2, 0))
	c.MarkDirty(b1, sim.Time(10))
	c.MarkDirty(b2, sim.Time(20))
	// Re-dirtying keeps the original time.
	c.MarkDirty(b1, sim.Time(99))
	if b1.DirtiedAt() != sim.Time(10) {
		t.Fatalf("re-dirty changed DirtiedAt to %v", b1.DirtiedAt())
	}
	if c.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	oldest, ok := c.OldestDirty()
	if !ok || oldest != sim.Time(10) {
		t.Fatalf("OldestDirty = %v, %v", oldest, ok)
	}
	dirty := c.DirtyBlocks()
	if len(dirty) != 2 || dirty[0] != b1 || dirty[1] != b2 {
		t.Fatal("DirtyBlocks not in dirtied order")
	}
	c.MarkClean(b1)
	c.MarkClean(b1) // idempotent
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount after clean = %d", c.DirtyCount())
	}
	oldest, ok = c.OldestDirty()
	if !ok || oldest != sim.Time(20) {
		t.Fatalf("OldestDirty after clean = %v, %v", oldest, ok)
	}
	c.MarkClean(b2)
	if _, ok := c.OldestDirty(); ok {
		t.Fatal("OldestDirty on all-clean cache reported a block")
	}
}

func TestAboveDirtyWatermark(t *testing.T) {
	c := New(10, 512)
	for i := 0; i < 6; i++ {
		c.MarkDirty(c.Add(key(i+1, 0)), 0)
	}
	if !c.AboveDirtyWatermark(0.5) {
		t.Fatal("6/10 dirty not above 0.5 watermark")
	}
	if c.AboveDirtyWatermark(0.8) {
		t.Fatal("6/10 dirty above 0.8 watermark")
	}
}

func TestRemove(t *testing.T) {
	c := New(4, 512)
	b := c.Add(key(1, 0))
	c.MarkDirty(b, 0)
	c.Remove(key(1, 0))
	if c.Len() != 0 || c.DirtyCount() != 0 {
		t.Fatal("Remove left state behind")
	}
	c.Remove(key(1, 0)) // removing a missing key is a no-op
}

func TestRemoveIno(t *testing.T) {
	c := New(16, 512)
	for i := 0; i < 4; i++ {
		c.Add(key(1, int64(i)))
	}
	c.MarkDirty(c.Peek(key(1, 2)), 0)
	c.MarkDirty(c.Add(Key{Kind: KindIndirect, Ino: 1, Off: 12}), 1)
	c.Add(Key{Kind: KindMeta, Ino: 1, Off: 7})
	c.MarkDirty(c.Add(key(2, 0)), 2)
	c.Add(Key{Kind: KindMeta, Off: 1})
	if n := c.RemoveIno(1); n != 6 || c.Len() != 2 {
		t.Fatalf("RemoveIno(1) removed %d, len %d", n, c.Len())
	}
	if c.Peek(key(2, 0)) == nil || c.Peek(Key{Kind: KindMeta, Off: 1}) == nil {
		t.Fatal("unrelated block removed")
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("dirty count %d after removing inode 1, want 1", c.DirtyCount())
	}
	if n := c.RemoveIno(1); n != 0 {
		t.Fatalf("second RemoveIno(1) removed %d", n)
	}
	// Remove from the middle, front and back of an inode's list,
	// then re-add: the list must stay consistent.
	for i := 0; i < 5; i++ {
		c.Add(key(3, int64(i)))
	}
	c.Remove(key(3, 2))
	c.Remove(key(3, 4))
	c.Remove(key(3, 0))
	c.Add(key(3, 9))
	if n := c.RemoveIno(3); n != 3 || c.Len() != 2 {
		t.Fatalf("RemoveIno(3) removed %d, len %d", n, c.Len())
	}
	// Clear forgets every inode's list.
	c.Add(key(4, 0))
	c.Clear()
	if n := c.RemoveIno(4); n != 0 {
		t.Fatalf("RemoveIno after Clear removed %d", n)
	}
	c.Add(key(4, 0))
	if n := c.RemoveIno(4); n != 1 || c.Len() != 0 {
		t.Fatalf("RemoveIno after Clear and re-add removed %d, len %d", n, c.Len())
	}
}

func TestDropClean(t *testing.T) {
	c := New(8, 512)
	c.Add(key(1, 0))
	c.Add(key(2, 0))
	d := c.Add(key(3, 0))
	c.MarkDirty(d, 0)
	p := c.Add(key(4, 0))
	c.Pin(p)
	n := c.DropClean()
	if n != 2 {
		t.Fatalf("DropClean removed %d, want 2", n)
	}
	if c.Peek(key(3, 0)) == nil || c.Peek(key(4, 0)) == nil {
		t.Fatal("DropClean removed a dirty or pinned block")
	}
}

func TestClear(t *testing.T) {
	c := New(8, 512)
	c.MarkDirty(c.Add(key(1, 0)), 0)
	c.Add(key(2, 0))
	c.Clear()
	if c.Len() != 0 || c.DirtyCount() != 0 {
		t.Fatal("Clear left blocks behind")
	}
	if _, ok := c.OldestDirty(); ok {
		t.Fatal("Clear left dirty list populated")
	}
}

func TestAddRecyclesEvictedBlock(t *testing.T) {
	c := New(2, 512)
	old := c.Add(key(1, 0))
	for i := range old.Data {
		old.Data[i] = 0xEE
	}
	c.MarkDirty(old, 5)
	c.MarkClean(old)
	c.Add(key(2, 0))
	b := c.Add(key(3, 0)) // evicts key(1, 0), the LRU block
	if b != old {
		t.Fatal("Add did not recycle the block it evicted")
	}
	if b.Key != key(3, 0) || c.Peek(key(3, 0)) != b || c.Peek(key(1, 0)) != nil {
		t.Fatalf("recycled block under key %v", b.Key)
	}
	for i, x := range b.Data {
		if x != 0 {
			t.Fatalf("recycled block byte %d = %#x, want 0", i, x)
		}
	}
	if b.Dirty() || b.Pinned() {
		t.Fatal("recycled block kept its previous state")
	}
	if !inoIndexConsistent(c) || c.Len() != 2 {
		t.Fatal("cache structures inconsistent after recycling")
	}

	// A removed block is reused by the next Add that evicts nothing;
	// a pinned one is not, since its holder still reads it.
	b.Data[0] = 1
	c.Remove(key(3, 0))
	if r := c.Add(key(4, 0)); r != b || r.Data[0] != 0 || r.Key != key(4, 0) {
		t.Fatal("Add did not reuse the zeroed removed block")
	}
	c.Pin(b)
	c.Remove(key(4, 0))
	if r := c.Add(key(5, 0)); r == b {
		t.Fatal("Add reused a pinned removed block")
	}
	if b.Key != key(4, 0) {
		t.Fatal("pinned removed block was modified")
	}
	c.Unpin(b)
}

// lruKeys returns the cached keys from most to least recently used.
func lruKeys(c *Cache) []Key {
	var out []Key
	for b := c.lru.head; b != nil; b = b.link[lruList].next {
		out = append(out, b.Key)
	}
	return out
}

func dirtyKeys(c *Cache) []Key {
	var out []Key
	for _, b := range c.DirtyBlocks() {
		out = append(out, b.Key)
	}
	return out
}

func TestListOrders(t *testing.T) {
	c := New(8, 64)
	for i := 1; i <= 5; i++ {
		c.Add(key(i, 0))
	}
	c.Get(key(3, 0)) // middle to front
	c.Get(key(1, 0)) // tail to front
	c.Get(key(1, 0)) // already at front
	if got, want := lruKeys(c), []Key{key(1, 0), key(3, 0), key(5, 0), key(4, 0), key(2, 0)}; !slices.Equal(got, want) {
		t.Fatalf("LRU order %v, want %v", got, want)
	}
	// The list is consistent walked backwards too.
	n := 0
	for b := c.lru.tail; b != nil; b = b.link[lruList].prev {
		n++
	}
	if n != c.Len() {
		t.Fatalf("backward walk saw %d blocks, want %d", n, c.Len())
	}

	for i, ino := range []int{4, 2, 5, 1} {
		c.MarkDirty(c.Peek(key(ino, 0)), sim.Time(10*(i+1)))
	}
	c.MarkDirty(c.Peek(key(2, 0)), 99) // re-dirtying keeps position and time
	if got, want := dirtyKeys(c), []Key{key(4, 0), key(2, 0), key(5, 0), key(1, 0)}; !slices.Equal(got, want) {
		t.Fatalf("dirty order %v, want %v", got, want)
	}
	c.MarkClean(c.Peek(key(2, 0))) // middle
	c.MarkClean(c.Peek(key(4, 0))) // head
	if at, ok := c.OldestDirty(); !ok || at != 30 {
		t.Fatalf("OldestDirty = %v %v, want 30 true", at, ok)
	}
	c.MarkDirty(c.Peek(key(4, 0)), 50) // re-dirtied goes to the back
	c.MarkClean(c.Peek(key(4, 0)))     // tail
	c.MarkDirty(c.Peek(key(3, 0)), 60)
	if got, want := dirtyKeys(c), []Key{key(5, 0), key(1, 0), key(3, 0)}; !slices.Equal(got, want) {
		t.Fatalf("dirty order %v, want %v", got, want)
	}
	if c.DirtyCount() != 3 {
		t.Fatalf("DirtyCount = %d, want 3", c.DirtyCount())
	}

	// RemoveIno and Remove unlink dirty blocks from both lists.
	c.RemoveIno(1)
	c.Remove(key(3, 0))
	if got, want := dirtyKeys(c), []Key{key(5, 0)}; !slices.Equal(got, want) {
		t.Fatalf("dirty order after removals %v, want %v", got, want)
	}
	if got, want := lruKeys(c), []Key{key(5, 0), key(4, 0), key(2, 0)}; !slices.Equal(got, want) {
		t.Fatalf("LRU order after removals %v, want %v", got, want)
	}

	// Eviction takes the LRU tail first.
	var evicted []Key
	DebugEvict = func(k Key) { evicted = append(evicted, k) }
	defer func() { DebugEvict = nil }()
	for i := 10; i < 16; i++ {
		c.Add(key(i, 0))
	}
	if want := []Key{key(2, 0)}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}

	c.Clear()
	if c.Len() != 0 || c.DirtyCount() != 0 || len(lruKeys(c)) != 0 || len(dirtyKeys(c)) != 0 {
		t.Fatal("Clear left list entries behind")
	}
	c.MarkDirty(c.Add(key(1, 0)), 1)
	if got, want := dirtyKeys(c), []Key{key(1, 0)}; !slices.Equal(got, want) || !inoIndexConsistent(c) {
		t.Fatalf("cache after Clear and re-add: dirty %v", got)
	}
}

// TestSteadyStateAllocatesNothing runs a Get miss, an evicting Add, a
// dirty/clean cycle, a Remove and a refilling Add on a full cache:
// with blocks recycled and the lists intrusive, none of it allocates.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const capacity = 64
	c := New(capacity, 4096)
	for i := 0; i < capacity; i++ {
		c.Add(key(1+i%4, int64(i)))
	}
	next := int64(capacity)
	cycle := func() {
		k := key(1+int(next%4), next)
		next++
		if c.Get(k) != nil {
			t.Fatal("hit on a fresh key")
		}
		b := c.Add(k) // evicts the LRU block and recycles it
		c.MarkDirty(b, sim.Time(next))
		c.MarkClean(b)
		c.Remove(k)                     // b becomes the spare
		c.Add(key(1+int(next%4), next)) // refills the cache from it
		next++
	}
	evictions := c.Stats().Evictions
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("%v allocs per steady-state cycle, want 0", n)
	}
	if c.Len() != capacity || c.Stats().Evictions-evictions < 1000 {
		t.Fatalf("len %d, %d evictions: the cycle did not run on a full cache",
			c.Len(), c.Stats().Evictions-evictions)
	}
}

func TestKeyString(t *testing.T) {
	if key(1, 2).String() == "" {
		t.Fatal("empty Key.String")
	}
}

// Property: the cache never exceeds capacity as long as blocks stay
// clean and unpinned, and never loses a dirty block.
func TestCacheInvariantsProperty(t *testing.T) {
	type op struct {
		Ino    uint8
		Off    uint8
		Dirty  bool
		Clean  bool
		Unlink bool
	}
	f := func(ops []op) bool {
		c := New(8, 64)
		dirtyKeys := map[Key]bool{}
		for i, o := range ops {
			k := key(int(o.Ino)%16+1, int64(o.Off)%4)
			b := c.Get(k)
			if b == nil {
				if c.Peek(k) != nil {
					return false
				}
				b = c.Add(k)
			}
			switch {
			case o.Unlink:
				c.RemoveIno(k.Ino)
				for off := int64(0); off < 4; off++ {
					delete(dirtyKeys, key(int(k.Ino), off))
				}
			case o.Dirty:
				c.MarkDirty(b, sim.Time(i))
				dirtyKeys[k] = true
			case o.Clean:
				c.MarkClean(b)
				delete(dirtyKeys, k)
			}
			if !inoIndexConsistent(c) {
				return false
			}
			// Invariant: every dirty key is still present.
			//lfslint:allow maporder Peek is read-only and the every-key invariant holds or fails identically in any order
			for dk := range dirtyKeys {
				if c.Peek(dk) == nil {
					return false
				}
			}
			// Invariant: size never exceeds capacity + dirty overflow.
			if c.Len() > c.Capacity()+len(dirtyKeys) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// inoIndexConsistent reports whether the per-inode lists link every
// cached block under its own inode, with one head per inode.
func inoIndexConsistent(c *Cache) bool {
	heads := 0
	for b := c.lru.head; b != nil; b = b.link[lruList].next {
		switch p := b.inoPrev; {
		case p == nil && c.byIno[b.Key.Ino] != b, p != nil && p.inoNext != b:
			return false
		case p == nil:
			heads++
		}
		if n := b.inoNext; n != nil && (n.inoPrev != b || n.Key.Ino != b.Key.Ino) {
			return false
		}
	}
	return heads == len(c.byIno) && c.lru.n == len(c.blocks)
}

func TestEvictionStress(t *testing.T) {
	c := New(16, 512)
	for i := 0; i < 1000; i++ {
		k := key(i%50+1, int64(i%7))
		if c.Get(k) == nil {
			c.Add(k)
		}
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew to %d blocks, capacity 16", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions under churn")
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1024, 4096)
	for i := 0; i < 1024; i++ {
		c.Add(key(1, int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(key(1, int64(i%1024)))
	}
}

// BenchmarkCacheAddEvict measures a miss-and-Add on a full cache, so
// every Add evicts (and recycles) the LRU block.
func BenchmarkCacheAddEvict(b *testing.B) {
	c := New(256, 4096)
	for i := 0; i < 256; i++ {
		c.Add(key(1, int64(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(1, int64(256+i))
		if c.Get(k) == nil {
			c.Add(k)
		}
	}
}

func BenchmarkCacheChurn(b *testing.B) {
	c := New(256, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(i%1000+1, 0)
		if c.Get(k) == nil {
			c.Add(k)
		}
	}
}

func ExampleCache() {
	c := New(128, 4096)
	b := c.Add(Key{Kind: KindFile, Ino: 1, Off: 0})
	copy(b.Data, "hello")
	c.MarkDirty(b, 0)
	fmt.Println(c.DirtyCount())
	// Output: 1
}
