package main

import (
	"fmt"
	"time"

	"lfs/internal/core"
	"lfs/internal/disk"
)

// smallfile is the Fig 3 test on the paper's configuration (300 MB
// volume, 15 MB cache): one client creates smallFiles files of about
// 1 KB in one directory and syncs, the cache is dropped, the files are
// read back in creation order, and all are deleted and synced. The
// ~20k blocks the files, inodes and directory touch outnumber the
// 3,840-block cache; the volume never fills, so the cleaner never runs.
const (
	smallFiles    = 10000
	smallCapacity = 300 << 20
	smallDir      = "/small"
	// The seed draws each file's size from [smallMinSize,
	// smallMaxSize]: 1 KB on average, always one block.
	smallMinSize = 768
	smallMaxSize = 1280
)

type smallfile struct {
	seed  int64
	cfg   core.Config
	vol   *volume
	names []string
	sizes []int
}

func setupSmallfile(seed int64, files int) (fixture, error) {
	s := &smallfile{seed: seed, cfg: core.DefaultConfig()}
	s.names = fileNames(seed, smallDir, files, 0)
	s.sizes = fileSizes(seed, files, smallMinSize, smallMaxSize)
	vol, disks, err := newVolume(1, smallCapacity)
	if err != nil {
		return nil, err
	}
	if err := core.Format(disks[0], s.cfg); err != nil {
		return nil, err
	}
	fs, err := core.Mount(disks[0], s.cfg)
	if err != nil {
		return nil, err
	}
	if err := fs.Mkdir(smallDir); err != nil {
		return nil, err
	}
	if err := fs.Unmount(); err != nil {
		return nil, err
	}
	s.vol = vol
	return s, vol.seal(disks[0].Clock(), fs)
}

func (s *smallfile) volume() *volume { return s.vol }

func (s *smallfile) measure(o runOpts) (*rep, error) {
	disks, clock, err := s.vol.restore(o.tr)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	if o.tr != nil {
		cfg.Trace = o.tr.rec
	}
	fs, err := core.Mount(disks[0], cfg)
	if err != nil {
		return nil, err
	}
	var t target = fs
	if !o.raw {
		t = newProbe(fs, o.tr)
	}
	n := len(s.names)
	r := &rep{}
	m := newMeter(clock, 3*n, o.cuts > 0)
	buf := make([]byte, disk.SectorSize*8)
	scratch := make([]byte, len(buf))
	lp := startLayers([]*core.FS{fs}, disks)
	// Power cuts spread over the three phases only time recovery, as
	// the files' state between syncs is open; the last, after the
	// final sync, must find the directory empty.
	cuts := cutsAt(s.seed, 3*n, o.cuts)
	cut := func(op int) {
		if _, ok := cuts[op]; !ok {
			return
		}
		c, err := s.vol.powerCut(clock.Now(), s.cfg, op == 3*n-1, s.recover)
		r.cuts = append(r.cuts, c)
		r.fail(err)
	}
	sim0, written0 := clock.Now(), diskTotals(disks)
	r.begin()
	w0 := time.Now()

	for i, name := range s.names {
		p := buf[:s.sizes[i]]
		fillPayload(p, s.seed, uint32(i), 0)
		tc, ts := m.start()
		err := t.Create(name)
		if err == nil {
			err = t.Write(name, 0, p)
		}
		m.stop(tc, ts)
		r.user += int64(len(p))
		r.fail(err)
		cut(i)
	}
	r.fail(t.Sync())
	t.DropCaches()
	for i, name := range s.names {
		tc, ts := m.start()
		got, err := t.Read(name, 0, buf)
		m.stop(tc, ts)
		r.reads++
		if err == nil && (got != s.sizes[i] || !checkPayload(buf[:got], scratch[:got], s.seed, uint32(i), 0)) {
			err = fmt.Errorf("smallfile: %s read back %d bytes that are not what was written", name, got)
		}
		r.fail(err)
		cut(n + i)
	}
	for i, name := range s.names {
		tc, ts := m.start()
		r.fail(t.Remove(name))
		m.stop(tc, ts)
		if i < n-1 { // the last remove's cut waits for the sync
			cut(2*n + i)
		}
	}
	r.fail(t.Sync())
	cut(3*n - 1)

	r.wall = time.Since(w0)
	r.end(m)
	r.ops = 3 * n
	r.simElapsed = clock.Now().Sub(sim0)
	r.written = diskTotals(disks) - written0
	if o.tr != nil {
		r.layers = lp.finish(r, o.tr)
	}
	r.sig = r.simSig()
	return r, nil
}

// recover mounts the image of a power cut. Its check, for the cut
// after the final sync, finds the directory empty.
func (s *smallfile) recover(disks []*disk.Disk) (int64, func() error, error) {
	fs, err := core.Mount(disks[0], s.cfg)
	if err != nil {
		return 0, nil, err
	}
	return fs.Stats().RollForwardUnits, func() error {
		ents, err := fs.ReadDir(smallDir)
		if err != nil {
			return err
		}
		if len(ents) != 0 {
			return fmt.Errorf("smallfile: after power cut %s holds %d entries, want 0", smallDir, len(ents))
		}
		return fs.Unmount()
	}, nil
}
