package core

import (
	"fmt"
	"slices"

	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// logHead is one append position in the log: the active segment, the
// next free block, the start of the assembled-but-unissued region of
// buf, and whether the head currently owns a segment at all. The hot
// head is always open; the cold head opens on the first cleaner
// relocation and closes if the log cannot spare it a segment.
type logHead struct {
	seg     int
	blk     int
	pending int
	buf     []byte
	open    bool
}

// flushScope controls what a segment write includes.
type flushScope int

const (
	// flushAll writes all dirty data, indirect blocks, and inodes —
	// the normal segment write (§4.1, §4.3.5).
	flushAll flushScope = iota
	// flushCheckpoint additionally writes dirty inode map blocks,
	// as the first half of a checkpoint (§4.4.1).
	flushCheckpoint
)

// flush is the segment writer: it gathers every dirty block from the
// cache, packs the blocks into log units (partial segments) with
// summary blocks, writes them with large asynchronous sequential
// transfers, and redirects all metadata pointers to the new locations.
//
// Batches are ordered bottom-up so every pointer update lands in a
// structure written later in the same flush: data blocks first (their
// new addresses dirty indirect blocks and inodes), then double-
// indirect inner blocks, the outer blocks, single indirect blocks,
// then inodes packed into inode blocks (updating the inode map), and
// finally — during checkpoints — the dirty inode map blocks
// themselves.
func (fs *FS) flush(scope flushScope) error {
	// Activate the cleaner below the clean-segment watermark
	// (§4.3.4) before starting to consume segments.
	if !fs.cleaning && fs.cleanCount <= fs.cfg.cleanThreshold(int(fs.sb.Segments)) {
		if err := fs.cleanSegments(); err != nil {
			return err
		}
	}

	// Batch 1: file and directory data blocks.
	var dataBlocks []*cache.Block
	for _, b := range fs.bc.DirtyBlocks() {
		if b.Key.Kind == cache.KindFile {
			dataBlocks = append(dataBlocks, b)
		}
	}
	if err := fs.writeDataBatch(dataBlocks); err != nil {
		return err
	}

	// Batches 2-4: indirect blocks, innermost first.
	for _, pass := range []func(int64) bool{
		func(id int64) bool { return id >= indDoubleInnerBase },
		func(id int64) bool { return id == indDoubleOuter },
		func(id int64) bool { return id == indSingle },
	} {
		var batch []*cache.Block
		for _, b := range fs.bc.DirtyBlocks() {
			if b.Key.Kind == cache.KindIndirect && pass(b.Key.Off) {
				batch = append(batch, b)
			}
		}
		if err := fs.writeIndirectBatch(batch); err != nil {
			return err
		}
	}

	// Batch 5: inodes, packed into inode blocks.
	if err := fs.writeInodeBatch(); err != nil {
		return err
	}

	// Batch 6: inode map blocks (checkpoints only; between
	// checkpoints the summaries carry enough to roll forward).
	if scope == flushCheckpoint {
		if err := fs.writeImapBatch(); err != nil {
			return err
		}
	}
	return fs.flushPendingIO()
}

// splitColdBlocks partitions a dirty batch into fresh blocks and
// cleaner-revived relocations. Outside a cleaner pass (or when the
// pass revived nothing) the batch passes through untouched.
func (fs *FS) splitColdBlocks(blocks []*cache.Block) (hot, cold []*cache.Block) {
	if len(fs.coldAges) == 0 {
		return blocks, nil
	}
	for _, b := range blocks {
		if _, ok := fs.coldAges[b.Key]; ok {
			cold = append(cold, b)
		} else {
			hot = append(hot, b)
		}
	}
	return hot, cold
}

// blockAges returns the data age credited for each block of a batch:
// relocations carry their victim segment's age so cold data stays old
// across copies (§3.6), fresh writes are as young as now. One batch
// can mix ages — the cleaner relocates several victims per pass.
func (fs *FS) blockAges(blocks []*cache.Block, class writeClass) []sim.Time {
	now := fs.clock.Now()
	ages := make([]sim.Time, len(blocks))
	for i, b := range blocks {
		ages[i] = now
		if class == classCold {
			if a, ok := fs.coldAges[b.Key]; ok && a > 0 {
				ages[i] = a
			}
		}
	}
	return ages
}

// writeDataBatch logs the given dirty data blocks and redirects their
// block pointers. During a cleaner pass the batch splits: blocks
// revived from the victim go to the cold stream carrying the victim's
// data age, everything else to the hot stream.
func (fs *FS) writeDataBatch(blocks []*cache.Block) error {
	hot, cold := fs.splitColdBlocks(blocks)
	if err := fs.writeDataClass(cold, classCold); err != nil {
		return err
	}
	return fs.writeDataClass(hot, classHot)
}

// writeDataClass logs one class's data blocks.
func (fs *FS) writeDataClass(blocks []*cache.Block, class writeClass) error {
	if len(blocks) == 0 {
		return nil
	}
	refs := make([]blockRef, len(blocks))
	for i, b := range blocks {
		refs[i] = blockRef{
			Kind:    kindData,
			Ino:     b.Key.Ino,
			ID:      b.Key.Off,
			Version: fs.imap.get(b.Key.Ino).Version,
		}
	}
	ages := fs.blockAges(blocks, class)
	addrs, err := fs.placeBlocks(class, refs, func(i int, dst []byte) { copy(dst, blocks[i].Data) }, ages)
	if err != nil {
		return err
	}
	bs := int64(fs.cfg.BlockSize)
	for i, b := range blocks {
		in, err := fs.getInode(b.Key.Ino)
		if err != nil {
			return fmt.Errorf("lfs: flushing data of inode %d: %w", b.Key.Ino, err)
		}
		old, err := fs.setBlockAddr(in, b.Key.Off, addrs[i])
		if err != nil {
			return err
		}
		fs.killBlock(old, bs)
		fs.creditSegmentAged(fs.segOf(addrs[i]), bs, ages[i])
		fs.bc.MarkClean(b)
	}
	return nil
}

// writeIndirectBatch logs dirty indirect blocks and redirects their
// parent pointers, with the same hot/cold split as data blocks.
func (fs *FS) writeIndirectBatch(blocks []*cache.Block) error {
	hot, cold := fs.splitColdBlocks(blocks)
	if err := fs.writeIndirectClass(cold, classCold); err != nil {
		return err
	}
	return fs.writeIndirectClass(hot, classHot)
}

// writeIndirectClass logs one class's indirect blocks.
func (fs *FS) writeIndirectClass(blocks []*cache.Block, class writeClass) error {
	if len(blocks) == 0 {
		return nil
	}
	refs := make([]blockRef, len(blocks))
	for i, b := range blocks {
		refs[i] = blockRef{
			Kind:    kindIndirect,
			Ino:     b.Key.Ino,
			ID:      b.Key.Off,
			Version: fs.imap.get(b.Key.Ino).Version,
		}
	}
	ages := fs.blockAges(blocks, class)
	addrs, err := fs.placeBlocks(class, refs, func(i int, dst []byte) { copy(dst, blocks[i].Data) }, ages)
	if err != nil {
		return err
	}
	bs := int64(fs.cfg.BlockSize)
	for i, b := range blocks {
		in, err := fs.getInode(b.Key.Ino)
		if err != nil {
			return fmt.Errorf("lfs: flushing indirect block of inode %d: %w", b.Key.Ino, err)
		}
		old, err := fs.setIndirectAddr(in, b.Key.Off, addrs[i])
		if err != nil {
			return err
		}
		fs.killBlock(old, bs)
		fs.creditSegmentAged(fs.segOf(addrs[i]), bs, ages[i])
		fs.bc.MarkClean(b)
	}
	return nil
}

// writeInodeBatch packs every dirty inode into inode blocks, logs
// them, and updates the inode map.
func (fs *FS) writeInodeBatch() error {
	inos := make([]layout.Ino, 0, len(fs.dirtyInodes))
	for ino := range fs.dirtyInodes {
		inos = append(inos, ino)
	}
	return fs.writeInodeBatchFor(inos)
}

// writeInodeBatchFor logs the given dirty inodes.
func (fs *FS) writeInodeBatchFor(inos []layout.Ino) error {
	if len(inos) == 0 {
		return nil
	}
	slices.Sort(inos)
	for _, ino := range inos {
		if fs.inodes[ino] == nil {
			return fmt.Errorf("lfs: dirty inode %d missing from the in-core table", ino)
		}
	}

	// Block bi packs inodes [bi*per, (bi+1)*per) in ascending order,
	// encoded straight into the segment buffer.
	per := fs.inodesPerBlock()
	group := func(bi int) []layout.Ino { return inos[bi*per : min((bi+1)*per, len(inos))] }
	refs := make([]blockRef, (len(inos)+per-1)/per)
	for bi := range refs {
		refs[bi] = blockRef{Kind: kindInodes}
	}
	// Inode blocks always go hot: they aggregate records of many
	// files and are rewritten whenever any of them changes.
	addrs, err := fs.placeBlocks(classHot, refs, func(bi int, dst []byte) {
		clear(dst)
		for i, ino := range group(bi) {
			fs.inodes[ino].Encode(dst[i*layout.InodeSize:])
		}
	}, nil)
	if err != nil {
		return err
	}
	for bi, base := range addrs {
		for i, ino := range group(bi) {
			e := fs.imap.get(ino)
			fs.killBlock(e.Addr, layout.InodeSize)
			e.Addr = base + layout.DiskAddr(i/inodesPerSector)
			e.Slot = uint8(i % inodesPerSector)
			fs.imap.markDirty(ino)
			fs.creditSegment(fs.segOf(base), layout.InodeSize)
			delete(fs.dirtyInodes, ino)
		}
	}
	return nil
}

// writeImapBatch logs every dirty inode map block and records the new
// addresses for the next checkpoint region write.
func (fs *FS) writeImapBatch() error {
	var refs []blockRef
	for idx, dirty := range fs.imap.dirtyBlock {
		if dirty {
			refs = append(refs, blockRef{Kind: kindImap, ID: int64(idx)})
		}
	}
	if len(refs) == 0 {
		return nil
	}
	addrs, err := fs.placeBlocks(classHot, refs, func(i int, dst []byte) {
		fs.imap.encodeBlock(int(refs[i].ID), dst)
	}, nil)
	if err != nil {
		return err
	}
	bs := int64(fs.cfg.BlockSize)
	for i, ref := range refs {
		idx := int(ref.ID)
		fs.killBlock(fs.imap.blockAddrs[idx], bs)
		fs.imap.blockAddrs[idx] = addrs[i]
		fs.creditSegment(fs.segOf(addrs[i]), bs)
		fs.imap.dirtyBlock[idx] = false
	}
	return nil
}

// placeBlocks appends one block per ref to the log as one or more
// units, assembling them in the class's segment buffer, and returns
// the disk address assigned to each block. fill(i, dst) writes block
// i's contents into dst, its block-sized slot in the segment buffer,
// so callers encode in place instead of staging a copy. Consecutive units in one
// segment are contiguous, so the eventual disk transfers are
// sequential. Cold placements fall back to the hot head when
// segregation is off or the log cannot spare the cold stream a
// segment; the unit's summary then records the head it actually
// landed in, while its Age still carries the relocated data's age.
// ages carries the per-block data age (nil means everything is as
// young as now); each unit's summary records the youngest age it
// contains, matching the segment-age semantics of §3.6.
func (fs *FS) placeBlocks(class writeClass, refs []blockRef, fill func(i int, dst []byte), ages []sim.Time) ([]layout.DiskAddr, error) {
	now := fs.clock.Now()
	if class == classCold && !fs.cfg.Segregation {
		class = classHot
	}
	if class == classCold && !fs.heads[classCold].open && !fs.openColdHead() {
		class = classHot
	}
	bs := fs.cfg.BlockSize
	addrs := make([]layout.DiskAddr, 0, len(refs))
	i := 0
	for i < len(refs) {
		h := &fs.heads[class]
		avail := fs.cfg.blocksPerSegment() - h.blk
		fit := maxUnitBlocks(avail, bs)
		if fit == 0 {
			if err := fs.advanceSegment(class); err != nil {
				if class == classCold {
					// No segment to spare for the cold stream (its
					// full segment is already sealed): close it and
					// share the hot head until space frees up.
					fs.heads[classCold].open = false
					class = classHot
					continue
				}
				return nil, err
			}
			continue
		}
		n := fit
		if rest := len(refs) - i; n > rest {
			n = rest
		}
		sumBlks := summaryBlocks(n, bs)
		dataStart := h.blk + sumBlks
		for j := 0; j < n; j++ {
			fill(i+j, h.buf[(dataStart+j)*bs:(dataStart+j+1)*bs])
			addrs = append(addrs, layout.DiskAddr(fs.blockSector(h.seg, dataStart+j)))
		}
		unitAge := now
		if ages != nil {
			unitAge = ages[i]
			for j := i + 1; j < i+n; j++ {
				if ages[j] > unitAge {
					unitAge = ages[j]
				}
			}
		}
		hdr := summaryHeader{
			Serial:    fs.writeSerial,
			NBlocks:   n,
			SumBlocks: sumBlks,
			Timestamp: fs.clock.Now(),
			DataCRC:   layout.DataChecksum(h.buf[dataStart*bs : (dataStart+n)*bs]),
			Class:     class,
			Age:       unitAge,
		}
		encodeSummary(hdr, refs[i:i+n], h.buf[h.blk*bs:dataStart*bs])
		fs.writeSerial++
		h.blk = dataStart + n
		fs.usage[h.seg].LastWrite = fs.clock.Now()
		fs.stats.UnitsWritten++
		fs.stats.BlocksWritten += int64(sumBlks + n)
		fs.cpu.Charge(fs.cfg.Costs.SegWriteSetup + int64(n)*fs.cfg.Costs.SegBlockLayout)
		i += n
	}
	return addrs, nil
}

// flushPendingIO issues the assembled-but-unwritten region of each
// open head as one asynchronous sequential write, hot before cold.
// The issue order is what crash recovery sees: replay stops at the
// first missing serial, so a unit that persisted ahead of a lost
// earlier-serial unit is simply discarded with everything after it —
// none of it was acknowledged before a sync drained the queue.
func (fs *FS) flushPendingIO() error {
	bs := fs.cfg.BlockSize
	for class := writeClass(0); class < numClasses; class++ {
		h := &fs.heads[class]
		if !h.open || h.blk == h.pending {
			continue
		}
		fs.cpu.Charge(fs.cfg.Costs.DiskOpSetup)
		// Attribution: the cold head only ever carries cleaner
		// relocations; the hot head carries log appends except when
		// the cleaner's flush rides it (fs.cleaning), matching the
		// paper's write-cost accounting.
		cause := disk.CauseLogAppend
		if fs.cleaning || class == classCold {
			cause = disk.CauseCleanerWrite
		}
		if err := fs.d.WriteSectors(fs.blockSector(h.seg, h.pending),
			h.buf[h.pending*bs:h.blk*bs], false, cause, "segment write"); err != nil {
			return err
		}
		h.pending = h.blk
	}
	return nil
}

// advanceSegment seals the class's active segment and activates the
// next clean one.
func (fs *FS) advanceSegment(class writeClass) error {
	if err := fs.flushPendingIO(); err != nil {
		return err
	}
	h := &fs.heads[class]
	fs.usage[h.seg].State = segDirty
	fs.stats.SegmentsSealed++
	next, ok := fs.findCleanSegmentFrom(h.seg)
	if !ok {
		return fmt.Errorf("%w: no clean segments", vfs.ErrNoSpace)
	}
	fs.activateHead(class, next)
	return nil
}

// openColdHead claims a clean segment for the cold stream, scanning
// from the hot head so the two streams stay near each other on disk.
// Returns false when the log cannot spare one — taking the last clean
// segment would starve the hot head — and the relocation shares the
// hot head instead.
func (fs *FS) openColdHead() bool {
	if fs.cleanCount <= 1 {
		return false
	}
	next, ok := fs.findCleanSegmentFrom(fs.heads[classHot].seg)
	if !ok {
		return false
	}
	fs.activateHead(classCold, next)
	return true
}

// activateHead points the class's head at seg and readies it for
// appends. The segment's age resets: it holds no data yet, so its
// first credit establishes the true age.
func (fs *FS) activateHead(class writeClass, seg int) {
	h := &fs.heads[class]
	h.seg, h.blk, h.pending, h.open = seg, 0, 0, true
	fs.usage[seg].State = segActive
	fs.usage[seg].Age = 0
	fs.cleanCount--
}

// findCleanSegmentFrom scans forward (wrapping) from the given
// segment for a clean one, keeping each stream roughly sequential on
// disk.
func (fs *FS) findCleanSegmentFrom(start int) (int, bool) {
	n := int(fs.sb.Segments)
	for i := 1; i <= n; i++ {
		seg := (start + i) % n
		if fs.usage[seg].State == segClean {
			return seg, true
		}
	}
	return 0, false
}
