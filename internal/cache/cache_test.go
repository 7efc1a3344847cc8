package cache

import (
	"fmt"
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
	for e := c.lru.Front(); e != nil; e = e.Next() {
		b := e.Value.(*Block)
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
	return heads == len(c.byIno) && c.lru.Len() == len(c.blocks)
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
