package main

import (
	"fmt"
	"time"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/sim"
)

// cleaning is Zipf churn at 80% utilization on a 48 MB volume with
// 256 KB segments and a 256-block cache, synced every cleanSyncEvery
// ops: one op in cleanReadEvery reads a whole 4 KB file, the rest
// overwrite one. An overwrite's simulated latency runs from its issue
// until the sync that makes it durable returns, as in the fsync
// workload; a read's until it returns. The cost-benefit cleaner with hot/cold segregation
// does most of the work. The files are spread over cleanSubdirs
// directories, so a lookup that misses the name cache after a remount
// scans a block or two, not the whole population. Set-up populates the
// volume and churns it until cleaning is steady, so the measured phase
// starts there.
const (
	cleanCapacity  = 48 << 20
	cleanFileSize  = 4096
	cleanUtil      = 0.80
	cleanSyncEvery = 64
	cleanReadEvery = 4
	cleanDir       = "/zipf"
	cleanSubdirs   = 128
)

// cleanSizes sizes the churn: ops set-up issues after populating, and
// ops each measured repetition issues. The measured count ends half a
// sync interval past a sync, so the power cut finds unsynced writes.
type cleanSizes struct{ age, ops int }

var cleanDefault = cleanSizes{age: 32 * 1024, ops: 128*1024 + cleanSyncEvery/2}

func cleaningConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheBlocks = 256
	cfg.SegmentSize = 256 << 10
	cfg.MaxLiveFraction = 0.92
	cfg.CleanThresholdSegments = 8
	cfg.CleanTargetSegments = 12
	cfg.Policy = core.CleanCostBenefit
	cfg.Segregation = true
	return cfg
}

type cleaning struct {
	seed     int64
	cfg      core.Config
	vol      *volume
	names    []string
	versions []uint32 // each file's version when set-up ended
	stream   []churnOp
}

func setupCleaning(seed int64, sz cleanSizes) (fixture, error) {
	c := &cleaning{seed: seed, cfg: cleaningConfig()}
	vol, disks, err := newVolume(1, cleanCapacity)
	if err != nil {
		return nil, err
	}
	if err := core.Format(disks[0], c.cfg); err != nil {
		return nil, err
	}
	fs, err := core.Mount(disks[0], c.cfg)
	if err != nil {
		return nil, err
	}
	files := int(cleanUtil * float64(fs.LogCapacity()) / cleanFileSize)
	c.names = fileNames(seed, cleanDir, files, cleanSubdirs)
	c.versions = make([]uint32, files)
	c.stream = churnStream(seed, streamMeasure, files, sz.ops, cleanReadEvery)
	for _, d := range append([]string{cleanDir}, subdirNames(cleanDir, cleanSubdirs)...) {
		if err := fs.Mkdir(d); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, cleanFileSize)
	for i, name := range c.names {
		fillPayload(buf, seed, uint32(i), 0)
		if err := fs.Create(name); err != nil {
			return nil, err
		}
		if err := fs.Write(name, 0, buf); err != nil {
			return nil, err
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	for i, op := range churnStream(seed, streamAge, files, sz.age, cleanReadEvery) {
		name := c.names[op.file]
		if op.read {
			if _, err := fs.Read(name, 0, buf); err != nil {
				return nil, err
			}
		} else {
			c.versions[op.file]++
			fillPayload(buf, seed, uint32(op.file), c.versions[op.file])
			if err := fs.Write(name, 0, buf); err != nil {
				return nil, err
			}
		}
		if (i+1)%cleanSyncEvery == 0 {
			if err := fs.Sync(); err != nil {
				return nil, err
			}
		}
	}
	if err := fs.Unmount(); err != nil {
		return nil, err
	}
	c.vol = vol
	return c, vol.seal(disks[0].Clock(), fs)
}

func (c *cleaning) volume() *volume { return c.vol }

func (c *cleaning) measure(o runOpts) (*rep, error) {
	disks, clock, err := c.vol.restore(o.tr)
	if err != nil {
		return nil, err
	}
	cfg := c.cfg
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
	// versions is each file's last version written, synced its last
	// version synced; dirty lists the files written since the last
	// sync, and issued the op index and issue time of each write.
	versions := append([]uint32(nil), c.versions...)
	synced := append([]uint32(nil), c.versions...)
	var dirty []int32
	var issued []issue
	buf := make([]byte, cleanFileSize)
	scratch := make([]byte, cleanFileSize)
	r := &rep{}
	m := newMeter(clock, len(c.stream), o.cuts > 0)
	lp := startLayers([]*core.FS{fs}, disks)
	cuts := cutsAt(c.seed, len(c.stream), o.cuts)
	sim0, written0 := clock.Now(), diskTotals(disks)
	half := len(c.stream) / 2
	var halfWritten, halfUser int64
	r.begin()
	w0 := time.Now()

	for i, op := range c.stream {
		f := op.file
		name := c.names[f]
		if !op.read {
			versions[f]++
			fillPayload(buf, c.seed, uint32(f), versions[f])
			dirty = append(dirty, f)
		}
		tc, ts := m.start()
		if !op.read {
			issued = append(issued, issue{i, ts})
		}
		var err error
		if op.read {
			var got int
			got, err = t.Read(name, 0, buf)
			if err == nil && (got != cleanFileSize || !checkPayload(buf, scratch, c.seed, uint32(f), versions[f])) {
				err = fmt.Errorf("cleaning: %s does not read back version %d", name, versions[f])
			}
			r.reads++
		} else {
			err = t.Write(name, 0, buf)
			r.user += cleanFileSize
		}
		sync := (i+1)%cleanSyncEvery == 0
		if sync && err == nil {
			err = t.Sync()
		}
		m.stop(tc, ts)
		r.fail(err)
		if sync {
			for _, d := range dirty {
				synced[d] = versions[d]
			}
			for _, w := range issued {
				m.simLat[w.op] = clock.Now().Sub(w.at)
			}
			dirty, issued = dirty[:0], issued[:0]
		}
		if i+1 == half {
			halfWritten, halfUser = diskTotals(disks)-written0, r.user
		}
		if full, ok := cuts[i]; ok {
			cut, err := c.vol.powerCut(clock.Now(), c.cfg, full, func(d []*disk.Disk) (int64, func() error, error) {
				return c.recover(d, versions, synced, buf, scratch)
			})
			r.cuts = append(r.cuts, cut)
			r.fail(err)
		}
	}

	r.wall = time.Since(w0)
	r.end(m)
	r.ops = len(c.stream)
	r.simElapsed = clock.Now().Sub(sim0)
	r.written = diskTotals(disks) - written0
	r.halves = [2]float64{
		float64(halfWritten) / float64(halfUser),
		float64(r.written-halfWritten) / float64(r.user-halfUser),
	}
	if o.tr != nil {
		r.layers = lp.finish(r, o.tr)
	}
	r.sig = r.simSig()
	return r, nil
}

// issue is an overwrite waiting for its sync: its op index and the
// simulated time it was issued.
type issue struct {
	op int
	at sim.Time
}

// recover mounts the image of a power cut. Its check reads every file:
// each must hold a version no older than its last sync and no newer
// than its last write, intact to the byte.
func (c *cleaning) recover(disks []*disk.Disk, versions, synced []uint32, buf, scratch []byte) (int64, func() error, error) {
	fs, err := core.Mount(disks[0], c.cfg)
	if err != nil {
		return 0, nil, err
	}
	return fs.Stats().RollForwardUnits, func() error {
		for f, name := range c.names {
			got, err := fs.Read(name, 0, buf)
			if err != nil {
				return err
			}
			file, v := payloadVersion(buf)
			if got != cleanFileSize || file != uint32(f) || v < synced[f] || v > versions[f] ||
				!checkPayload(buf, scratch, c.seed, file, v) {
				return fmt.Errorf("cleaning: after power cut %s holds (file %d, version %d), want a version in [%d, %d]",
					name, file, v, synced[f], versions[f])
			}
		}
		return fs.Unmount()
	}, nil
}
