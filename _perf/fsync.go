package main

import (
	"bytes"
	"fmt"
	"time"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/server"
	"lfs/internal/shard"
	"lfs/internal/sim"
)

// fsync is the durability path: fsyncClients closed-loop clients of
// internal/server, each doing 4 KB write+fsync with no think time over
// its own fsyncFiles files, against a fsyncShards-shard router with
// group commit on a CPU twenty times the Sun4. The 512 KB working set
// fits in cache. Set-up writes until every shard's log has wrapped and
// its cleaner has run, because throughput drops once it has.
const (
	fsyncShards    = 4
	fsyncCapacity  = 96 << 20 // split evenly over the shards
	fsyncClients   = 16
	fsyncFiles     = 8
	fsyncWriteSize = 4096
	// fsyncThink bounds each client's pause between ops: uniform in
	// [0, fsyncThink), a few percent of an op's latency. With no pause
	// the clients run in lockstep and every seed gives the same
	// simulation; with this one the seed varies who joins which group
	// commit, and most fsyncs still ride another's commit.
	fsyncThink = 3 * sim.Millisecond
	// fsyncAgeRound is the ops per client of one pre-aging round.
	fsyncAgeRound = 64
	// fsyncMaxAge bounds pre-aging; a volume that has not wrapped by
	// then fails set-up rather than measure a transient.
	fsyncMaxAge = 400
)

// fsyncOps is the ops per client of a measured repetition.
var fsyncOps = 4096

func fsyncConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	cfg.MIPS = 20 * sim.Sun4MIPS
	return cfg
}

type fsyncBench struct {
	seed int64
	opts shard.Options
	vol  *volume
	ops  int
}

func (f *fsyncBench) server(ops int, seed int64) server.Config {
	return server.Config{
		Clients:        fsyncClients,
		OpsPerClient:   ops,
		WriteSize:      fsyncWriteSize,
		FilesPerClient: fsyncFiles,
		ThinkTime:      fsyncThink,
		Seed:           seed,
	}
}

func setupFsync(seed int64, ops int) (fixture, error) {
	f := &fsyncBench{seed: seed, opts: shard.Options{Base: fsyncConfig()}, ops: ops}
	vol, disks, err := newVolume(fsyncShards, fsyncCapacity/fsyncShards)
	if err != nil {
		return nil, err
	}
	if err := shard.Format(disks, f.opts); err != nil {
		return nil, err
	}
	fs, err := shard.Mount(disks, f.opts)
	if err != nil {
		return nil, err
	}
	fss := make([]*core.FS, fs.NumShards())
	for i := range fss {
		fss[i] = fs.ShardFS(i)
	}
	// Pre-age until every shard's cleaner has run: the guard that every
	// log wrapped.
	for round := int64(1); ; round++ {
		wrapped := true
		for _, s := range fss {
			wrapped = wrapped && s.Stats().CleanerRuns > 0
		}
		if wrapped {
			break
		}
		if round > fsyncMaxAge {
			return nil, fmt.Errorf("fsync: a shard's log has not wrapped after %d pre-aging rounds", fsyncMaxAge)
		}
		if _, err := server.Run(fs, f.server(fsyncAgeRound, seed+round)); err != nil {
			return nil, err
		}
	}
	// Then a seed-drawn stretch more, so each seed starts the measured
	// phase at its own point of the log's cycle.
	extra := 1 + newSplitmix(seed, streamAge).intn(4*fsyncAgeRound)
	if _, err := server.Run(fs, f.server(extra, seed)); err != nil {
		return nil, err
	}
	if err := fs.Unmount(); err != nil {
		return nil, err
	}
	f.vol = vol
	return f, vol.seal(disks[0].Clock(), fss...)
}

func (f *fsyncBench) volume() *volume { return f.vol }

func (f *fsyncBench) measure(o runOpts) (*rep, error) {
	disks, clock, err := f.vol.restore(o.tr)
	if err != nil {
		return nil, err
	}
	opts := f.opts
	if o.tr != nil {
		opts.Base.Trace = o.tr.rec
	}
	fs, err := shard.Mount(disks, opts)
	if err != nil {
		return nil, err
	}
	fss := make([]*core.FS, fs.NumShards())
	for i := range fss {
		fss[i] = fs.ShardFS(i)
	}
	r := &rep{}
	m := newMeter(clock, fsyncClients*f.ops, o.cuts > 0)
	var t server.FS = fs
	var p *probe
	if !o.raw {
		p = newProbe(fs, o.tr)
		p.serve(fsyncClients, m)
		t = p
		if o.cuts > 0 {
			cuts := cutsAt(f.seed, fsyncClients*f.ops, o.cuts)
			p.after = func(n int) {
				if full, ok := cuts[n-1]; ok {
					c, err := f.vol.powerCut(clock.Now(), f.opts.Base, full, f.recover)
					r.cuts = append(r.cuts, c)
					r.fail(err)
				}
			}
		}
	}
	lp := startLayers(fss, disks)
	written0 := diskTotals(disks)
	r.begin()
	w0 := time.Now()
	res, err := server.Run(t, f.server(f.ops, f.seed))
	r.wall = time.Since(w0)
	if err != nil {
		return nil, err
	}
	r.end(m)
	r.ops = int(res.Ops)
	r.simElapsed = res.Elapsed()
	r.user = res.BytesWritten
	r.written = diskTotals(disks) - written0
	r.events = res.Events
	var total, worst sim.Duration
	for _, c := range res.PerClient {
		total += c.TotalLatency
		worst = max(worst, c.MaxLatency)
	}
	if p != nil {
		// The probe's per-op latencies must be the server's own.
		var sum sim.Duration
		for _, d := range r.simLat {
			sum += d
		}
		if len(r.simLat) != r.ops || sum != total {
			r.fail(fmt.Errorf("fsync: probe timed %d ops totalling %v, server %d totalling %v",
				len(r.simLat), sum, r.ops, total))
		}
	}
	if o.tr != nil {
		r.layers = lp.finish(r, o.tr)
	}
	// The signature leaves out the probe's latencies, which an
	// unwrapped run does not have; they are checked against total.
	r.sig = fmt.Sprint(r.ops, r.failed, r.simElapsed, r.written, r.user, r.events, total, worst)
	return r, nil
}

// recover mounts the image of a power cut on every shard. Its check
// reads every client file back.
func (f *fsyncBench) recover(disks []*disk.Disk) (int64, func() error, error) {
	fs, err := shard.Mount(disks, f.opts)
	if err != nil {
		return 0, nil, err
	}
	var units int64
	for i := 0; i < fs.NumShards(); i++ {
		units += fs.ShardFS(i).Stats().RollForwardUnits
	}
	return units, func() error {
		if err := f.verify(fs); err != nil {
			return err
		}
		return fs.Unmount()
	}, nil
}

// verify walks every client file after a power cut. Set-up fsynced a
// write to each, so all must be there, each holding exactly one 4 KB
// write (the server writes zeros).
func (f *fsyncBench) verify(fs *shard.FS) error {
	zero := make([]byte, fsyncWriteSize)
	buf := make([]byte, fsyncWriteSize+1)
	found := 0
	dirs, err := fs.ReadDir("/")
	if err != nil {
		return err
	}
	for _, d := range dirs {
		ents, err := fs.ReadDir("/" + d.Name)
		if err != nil {
			return err
		}
		for _, e := range ents {
			path := "/" + d.Name + "/" + e.Name
			n, err := fs.Read(path, 0, buf)
			if err != nil {
				return err
			}
			if n != fsyncWriteSize || !bytes.Equal(buf[:n], zero) {
				return fmt.Errorf("fsync: after power cut %s reads back %d bytes that are not the write", path, n)
			}
			found++
		}
	}
	if found != fsyncClients*fsyncFiles {
		return fmt.Errorf("fsync: after power cut %d files, want %d", found, fsyncClients*fsyncFiles)
	}
	return nil
}
