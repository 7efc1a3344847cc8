package ffs

import (
	"testing"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

func newTestFS(t *testing.T, capacity int64) *FS {
	t.Helper()
	d := disk.NewMem(capacity, sim.NewClock())
	cfg := DefaultConfig()
	if err := Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestLayoutArithmetic(t *testing.T) {
	sb := superblock{BlockSize: 8192, BlocksPerGroup: 256, InodesPerGroup: 512, Groups: 4, TotalBlocks: 1025}
	lay := newLayout(sb)
	if lay.sectorsPerBlock != 16 {
		t.Fatalf("sectorsPerBlock = %d", lay.sectorsPerBlock)
	}
	if lay.inodesPerBlock != 8192/layout.InodeSize {
		t.Fatalf("inodesPerBlock = %d", lay.inodesPerBlock)
	}
	// Group starts advance by BlocksPerGroup from block 1.
	if lay.groupStart(0) != 1 || lay.groupStart(1) != 257 {
		t.Fatalf("group starts = %d, %d", lay.groupStart(0), lay.groupStart(1))
	}
	// Data region begins after the bitmap and inode table.
	want := lay.groupStart(2) + 1 + int64(lay.itBlocks)
	if lay.dataStart(2) != want {
		t.Fatalf("dataStart = %d, want %d", lay.dataStart(2), want)
	}
	// Ino <-> (group, slot) round trip.
	for _, ino := range []layout.Ino{1, 2, 512, 513, 1024, 2048} {
		g, s := lay.groupOf(ino), lay.slotOf(ino)
		if lay.inoFor(g, s) != ino {
			t.Fatalf("ino %d -> (%d,%d) -> %d", ino, g, s, lay.inoFor(g, s))
		}
	}
	if !lay.validIno(1) || !lay.validIno(lay.maxIno()) || lay.validIno(0) || lay.validIno(lay.maxIno()+1) {
		t.Fatal("validIno boundaries wrong")
	}
	// Block <-> group mapping.
	if lay.blockToGroup(0) != -1 {
		t.Fatal("superblock mapped to a group")
	}
	if lay.blockToGroup(1) != 0 || lay.blockToGroup(256) != 0 || lay.blockToGroup(257) != 1 {
		t.Fatal("blockToGroup boundaries wrong")
	}
	// Address conversions invert each other.
	for _, pb := range []int64{1, 100, 1000} {
		if lay.blockOf(lay.addrOf(pb)) != pb {
			t.Fatalf("addr round trip failed for block %d", pb)
		}
	}
}

func TestBitOps(t *testing.T) {
	bm := make([]byte, 4)
	for i := 0; i < 32; i++ {
		if testBit(bm, i) {
			t.Fatalf("fresh bit %d set", i)
		}
	}
	setBit(bm, 0)
	setBit(bm, 7)
	setBit(bm, 8)
	setBit(bm, 31)
	for i := 0; i < 32; i++ {
		want := i == 0 || i == 7 || i == 8 || i == 31
		if testBit(bm, i) != want {
			t.Fatalf("bit %d = %v", i, testBit(bm, i))
		}
	}
	clearBit(bm, 7)
	if testBit(bm, 7) {
		t.Fatal("clearBit failed")
	}
	if !testBit(bm, 0) || !testBit(bm, 8) {
		t.Fatal("clearBit clobbered neighbours")
	}
}

// TestInodePlacementPolicy: files go to their parent directory's
// group; new directories spread across groups.
func TestInodePlacementPolicy(t *testing.T) {
	fs := newTestFS(t, 64<<20)
	// Create several directories; they should land in different
	// groups.
	groups := map[int]bool{}
	for i := 0; i < 4; i++ {
		p := string(rune('a' + i)) // /a /b /c /d
		if err := fs.Mkdir("/" + p); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat("/" + p)
		if err != nil {
			t.Fatal(err)
		}
		groups[fs.lay.groupOf(fi.Ino)] = true
	}
	if len(groups) < 2 {
		t.Fatalf("4 directories all in %d group(s); they should spread", len(groups))
	}
	// Files share their parent's group.
	if err := fs.Create("/a/child"); err != nil {
		t.Fatal(err)
	}
	dirFi, _ := fs.Stat("/a")
	fileFi, _ := fs.Stat("/a/child")
	if fs.lay.groupOf(dirFi.Ino) != fs.lay.groupOf(fileFi.Ino) {
		t.Fatalf("file in group %d, parent dir in group %d",
			fs.lay.groupOf(fileFi.Ino), fs.lay.groupOf(dirFi.Ino))
	}
}

// TestDataBlockLocality: a file's data blocks are allocated in its
// inode's cylinder group while space lasts.
func TestDataBlockLocality(t *testing.T) {
	fs := newTestFS(t, 64<<20)
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, make([]byte, 10*8192)); err != nil {
		t.Fatal(err)
	}
	in, err := fs.readInode(2) // first file after root
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := fs.Stat("/f")
	in, err = fs.readInode(fi.Ino)
	if err != nil {
		t.Fatal(err)
	}
	g := fs.lay.groupOf(in.Ino)
	for i := 0; i < 10; i++ {
		a := in.Direct[i]
		if a.IsNil() {
			t.Fatalf("block %d unallocated", i)
		}
		if fs.lay.blockToGroup(fs.lay.blockOf(a)) != g {
			t.Fatalf("block %d allocated in group %d, inode in group %d",
				i, fs.lay.blockToGroup(fs.lay.blockOf(a)), g)
		}
	}
}

// TestAllocSpillsToOtherGroups: when the preferred group fills, the
// allocator moves on rather than failing.
func TestAllocSpillsToOtherGroups(t *testing.T) {
	fs := newTestFS(t, 16<<20)
	// One group holds ~2MB of data; write 6MB into one file.
	if err := fs.Create("/big"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/big", 0, make([]byte, 6<<20)); err != nil {
		t.Fatalf("cross-group allocation failed: %v", err)
	}
	fi, _ := fs.Stat("/big")
	if fi.Size != 6<<20 {
		t.Fatalf("size = %d", fi.Size)
	}
}

func TestFreeBlockDoubleFree(t *testing.T) {
	fs := newTestFS(t, 16<<20)
	pb, err := fs.allocBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.freeBlock(pb); err != nil {
		t.Fatal(err)
	}
	if err := fs.freeBlock(pb); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := superblock{BlockSize: 8192, BlocksPerGroup: 256, InodesPerGroup: 512, Groups: 37, TotalBlocks: 9473}
	buf := make([]byte, 8192)
	sb.encode(buf)
	got, err := decodeSuperblock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Fatalf("round trip: %+v vs %+v", got, sb)
	}
	buf[5] ^= 0xFF
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("corrupted superblock decoded")
	}
}

// TestBmapPinsIndirectAcrossBitmapRead allocates a block through the
// single indirect block when that block is the only clean one in a
// full cache and the group's bitmap is not cached: the bitmap read
// must not evict and recycle the indirect block bmap is updating.
func TestBmapPinsIndirectAcrossBitmapRead(t *testing.T) {
	fs := newTestFS(t, 64<<20)
	bs := fs.cfg.BlockSize
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, make([]byte, (layout.NDirect+1)*bs)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := fs.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	in, err := fs.readInode(fi.Ino)
	if err != nil || in.Indirect.IsNil() {
		t.Fatalf("inode %+v, err %v: want a single indirect block", in, err)
	}
	// Everything is on disk: start over with only the indirect block
	// cached clean, and dirty blocks (never written back here)
	// filling the rest of the cache.
	fs.bc.Clear()
	ibKey := blockKey(fs.lay.blockOf(in.Indirect))
	if _, err := fs.getBlock(ibKey.Off, true, "indirect"); err != nil {
		t.Fatal(err)
	}
	for off := int64(1 << 40); fs.bc.Len() < fs.bc.Capacity(); off++ {
		fs.bc.MarkDirty(fs.bc.Add(cache.Key{Kind: cache.KindMeta, Off: off}), 0)
	}

	pb, isNew, _, err := fs.bmap(&in, layout.NDirect+1, true)
	if err != nil || !isNew {
		t.Fatalf("bmap: pb %d new %v err %v", pb, isNew, err)
	}
	ib := fs.bc.Peek(ibKey)
	if ib == nil {
		t.Fatal("the indirect block was evicted mid-update")
	}
	if got := loadAddr(ib, 1); got != fs.lay.addrOf(pb) {
		t.Fatalf("indirect entry 1 = %v, want %v", got, fs.lay.addrOf(pb))
	}
	g := fs.lay.blockToGroup(pb)
	bm := fs.bc.Peek(blockKey(fs.lay.bitmapBlock(g)))
	if bm == nil || !testBit(bm.Data, int(pb-fs.lay.groupStart(g))) {
		t.Fatal("the new block is not marked allocated in its bitmap")
	}
}
