package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/sim"
)

// volume is a set-up image ready to measure: the copy-on-write stores
// of its disks, a snapshot of each, and the simulated time set-up
// ended at. Every measured repetition restores the snapshots, so each
// one starts from the same bytes and the same clock.
type volume struct {
	geom   disk.Geometry
	stores []*disk.CowMemStore
	snaps  []disk.Snapshot
	end    sim.Time
	// cleanerRuns is the fewest cleaner runs any of the volume's file
	// systems made during set-up.
	cleanerRuns int64
}

// newVolume returns n empty disks of the given capacity each, on one
// new simulated clock.
func newVolume(n int, capacity int64) (*volume, []*disk.Disk, error) {
	v := &volume{geom: disk.GeometryForCapacity(capacity)}
	clock := sim.NewClock()
	disks := make([]*disk.Disk, n)
	for i := range disks {
		st := disk.NewCowMemStore(v.geom.TotalBytes())
		d, err := disk.New(st, v.geom, disk.WrenIVModel(), clock)
		if err != nil {
			return nil, nil, err
		}
		v.stores = append(v.stores, st)
		disks[i] = d
	}
	return v, disks, nil
}

// seal snapshots every store once set-up has unmounted the volume's
// file systems.
func (v *volume) seal(clock *sim.Clock, fss ...*core.FS) error {
	v.cleanerRuns = fss[0].Stats().CleanerRuns
	for _, fs := range fss[1:] {
		v.cleanerRuns = min(v.cleanerRuns, fs.Stats().CleanerRuns)
	}
	for _, st := range v.stores {
		sn, err := st.Snapshot()
		if err != nil {
			return err
		}
		v.snaps = append(v.snaps, sn)
	}
	v.end = clock.Now()
	return nil
}

// restore rewinds every store to the sealed image and returns fresh
// disks over them on a new clock standing where set-up stopped. With a
// tracer, each disk's store is wrapped so store calls become spans.
func (v *volume) restore(tr *tracer) ([]*disk.Disk, *sim.Clock, error) {
	clock := sim.NewClock()
	clock.AdvanceTo(v.end)
	disks := make([]*disk.Disk, len(v.stores))
	for i, st := range v.stores {
		if err := v.snaps[i].Restore(); err != nil {
			return nil, nil, err
		}
		var s disk.Store = st
		if tr != nil {
			s = &timedStore{Store: st, tr: tr}
		}
		d, err := disk.New(s, v.geom, disk.WrenIVModel(), clock)
		if err != nil {
			return nil, nil, err
		}
		disks[i] = d
	}
	return disks, clock, nil
}

// cut is one power cut: a copy of the image as it stood, mounted with
// roll-forward on a fresh clock.
type cut struct {
	recovery sim.Duration
	wall     time.Duration
	units    int64
}

// powerCut recovers the image as it stands at simulated time now, as
// if power failed there, then puts the live image back so the measured
// run goes on untouched. mount mounts the disks it is given with
// roll-forward and returns the units it replayed and a check of what
// it recovered, which must unmount. With full set, the check runs and
// then every disk is fscked; otherwise only recovery is timed.
func (v *volume) powerCut(now sim.Time, cfg core.Config, full bool, mount func([]*disk.Disk) (int64, func() error, error)) (c cut, err error) {
	var live []disk.Snapshot
	defer func() {
		for _, sn := range live {
			if rerr := sn.Restore(); rerr != nil && err == nil {
				err = rerr
			}
			_ = sn.Release() // releasing a memory snapshot cannot fail
		}
	}()
	for _, st := range v.stores {
		sn, err := st.Snapshot()
		if err != nil {
			return c, err
		}
		live = append(live, sn)
	}
	clock := sim.NewClock()
	clock.AdvanceTo(now)
	disks := make([]*disk.Disk, len(v.stores))
	for i, st := range v.stores {
		if disks[i], err = disk.New(st, v.geom, disk.WrenIVModel(), clock); err != nil {
			return c, err
		}
	}
	w0 := time.Now()
	units, check, err := mount(disks)
	c = cut{recovery: clock.Now().Sub(now), wall: time.Since(w0), units: units}
	if err != nil {
		return c, fmt.Errorf("remount after power cut: %w", err)
	}
	if !full {
		return c, nil
	}
	if err := check(); err != nil {
		return c, err
	}
	return c, fsckAll(disks, cfg)
}

// fullEvery is how often a power cut also reads the image back and
// fscks it; the rest only time recovery. The last cut is always full.
const fullEvery = 16

// cutsAt returns the op indices after which a run of ops ops cuts
// power n times, each mapped to whether that cut is full. The run is
// split into n equal strata and each cut falls at a seed-drawn point
// of its stratum, so cuts land at every phase of the checkpoint cycle
// rather than in step with it; the last comes after the final op.
func cutsAt(seed int64, ops, n int) map[int]bool {
	r := newSplitmix(seed, streamCuts)
	at := map[int]bool{}
	for k := 1; k <= n; k++ {
		lo, hi := (k-1)*ops/n, k*ops/n
		i := hi - 1
		if k < n && hi > lo {
			i = lo + r.intn(hi-lo)
		}
		at[i] = k%fullEvery == 0 || k == n
	}
	return at
}

// sig renders the set-up outcome; every set-up from one seed must
// reach the same one.
func (v *volume) sig() string { return fmt.Sprint(v.end, v.cleanerRuns) }

// release drops the snapshots.
func (v *volume) release() {
	for _, sn := range v.snaps {
		_ = sn.Release() // releasing a memory snapshot cannot fail
	}
}

// target is what the workloads drive: core.FS and shard.FS both
// satisfy it, and so does probe, which wraps either.
type target interface {
	server.FS
	FsyncFile(path string) error
	NoteWait(kind obs.PhaseKind, d sim.Duration)
	TickMetrics()
	DropCaches()
}

// rep is the outcome of one measured repetition.
type rep struct {
	ops, reads int
	failed     int
	simLat     []sim.Duration
	// cpuLat holds each op's time on the process CPU clock (see
	// cpuNow); cpu and wall are the whole phase's on that clock and
	// on the wall clock.
	cpuLat     []time.Duration
	cpu, wall  time.Duration
	simElapsed sim.Duration
	// written counts disk bytes written (every cause) plus bytes the
	// cleaner read; user counts payload bytes the workload wrote.
	written, user int64
	// halves holds written/user over each half of the measured phase.
	halves [2]float64
	// cuts holds the power cuts of a crash pass.
	cuts []cut
	// events counts scheduler events (the fsync workload's server).
	events   int64
	mallocs  uint64
	heapPeak uint64
	rt0, rt  runtimeStats
	errs     []string
	// sig is a rendering of every simulated outcome, compared across
	// repetitions: they must be identical.
	sig string
	// layers holds the per-layer metrics of a traced repetition.
	layers map[string]float64
}

// begin starts a measured phase: a collection first, so every
// repetition starts from the same heap.
func (r *rep) begin() {
	runtime.GC()
	r.mallocs = mallocs()
	r.rt0 = readRuntime()
	r.cpu = cpuNow()
}

// end closes a measured phase and takes the meter's samples.
func (r *rep) end(m *meter) {
	r.cpu = cpuNow() - r.cpu
	r.mallocs = mallocs() - r.mallocs
	r.rt = readRuntime().sub(r.rt0)
	if m.heapEvery > 0 {
		m.sampleHeap()
	}
	r.heapPeak = m.heapPeak
	r.simLat, r.cpuLat = m.simLat, m.cpuLat
}

// fail counts a failed op or check and keeps the first few errors.
func (r *rep) fail(err error) {
	if err == nil {
		return
	}
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// simSig renders the simulated outcome of the repetition.
func (r *rep) simSig() string {
	var sum sim.Duration
	for _, d := range r.simLat {
		sum += d
	}
	return fmt.Sprint(r.ops, r.reads, r.failed, r.simElapsed, len(r.simLat), sum,
		r.written, r.user, r.halves, r.events)
}

// runtimeStats are Go runtime counters read around a measured phase.
type runtimeStats struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
	allocBytes      uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		gcCycles:   s[2].Value.Uint64(),
		allocBytes: s[3].Value.Uint64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes}
}

// bytesRatio returns written/user.
func (r *rep) bytesRatio() float64 { return float64(r.written) / float64(r.user) }

// meter times the ops of a measured phase on the simulated clock and
// the process CPU clock. When heapEvery is set, it also collects
// garbage every heapEvery ops and keeps the largest heap found live:
// what the program holds at fixed points of the phase, which, unlike
// the heap in use between collections, does not move with when the
// collector happens to run.
type meter struct {
	clock     *sim.Clock
	simLat    []sim.Duration
	cpuLat    []time.Duration
	heapEvery int
	heapPeak  uint64
	heap      []metrics.Sample
}

// heapSamples is how many times a crash pass samples the live heap.
const heapSamples = 32

// newMeter returns a meter for a phase of n ops; on a crash pass
// (crash set), it samples the live heap heapSamples times. The timed
// repetitions do not, as the collections would cost host time.
func newMeter(clock *sim.Clock, n int, crash bool) *meter {
	m := &meter{
		clock:  clock,
		simLat: make([]sim.Duration, 0, n),
		cpuLat: make([]time.Duration, 0, n),
		heap:   []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	if crash {
		m.heapEvery = max(n/heapSamples, 1)
	}
	return m
}

func (m *meter) start() (time.Duration, sim.Time) { return cpuNow(), m.clock.Now() }

func (m *meter) stop(c0 time.Duration, s0 sim.Time) {
	m.record(cpuNow()-c0, m.clock.Now().Sub(s0))
}

// record counts one op done, with its CPU and simulated latencies.
func (m *meter) record(cpu time.Duration, lat sim.Duration) {
	m.cpuLat = append(m.cpuLat, cpu)
	m.simLat = append(m.simLat, lat)
	if m.heapEvery > 0 && len(m.cpuLat)%m.heapEvery == 0 {
		m.sampleHeap()
	}
}

func (m *meter) sampleHeap() {
	runtime.GC()
	metrics.Read(m.heap)
	if v := m.heap[0].Value.Uint64(); v > m.heapPeak {
		m.heapPeak = v
	}
}

// mallocs returns the Go heap allocations made so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// diskTotals sums written and cleaner-read bytes over disks.
func diskTotals(disks []*disk.Disk) int64 {
	var n int64
	for _, d := range disks {
		s := d.Stats()
		n += s.BytesWritten() + s.ByCause[disk.CauseCleanerRead].Sectors*disk.SectorSize
	}
	return n
}

// fsckAll checks every disk with a fresh mount.
func fsckAll(disks []*disk.Disk, cfg core.Config) error {
	for i, d := range disks {
		rep, err := core.Fsck(d, cfg)
		if err != nil {
			return fmt.Errorf("fsck disk %d: %w", i, err)
		}
		if !rep.Ok() {
			return fmt.Errorf("fsck disk %d: %v", i, rep.Problems)
		}
	}
	return nil
}
