// Command lfsperf is the repository benchmark: it drives LFS through
// three workloads and prints one JSON line of metrics.
//
//	bash _perf/run.sh --workload smallfile --seed 1 --seconds 10 --trace 0
//
// Each run sets the workload up several times from an empty volume
// (the median is setup_s). It then runs the measured phase once from
// the set-up image with power cuts spread over it, recovering and
// checking each cut's image, and repeats the phase without cuts until
// --seconds of it have run. Every repetition is the same simulation,
// so simulated-clock metrics come out identical and are checked to be.
// With --trace 1, every other repetition is traced and the output
// holds the per-layer metrics instead. Host timings are process CPU
// time on one Go processor (see cpuNow): the workloads are
// single-threaded, so the benchmark asks for one core and times what
// it uses of it. PREDICTIONS.md says what each metric means and what
// it should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"lfs/internal/obs"
)

// fixture is a workload set up and ready to measure.
type fixture interface {
	measure(o runOpts) (*rep, error)
	volume() *volume
}

// runOpts shapes one measured repetition.
type runOpts struct {
	// tr, when set, traces the repetition.
	tr *tracer
	// raw drives the file system directly, without the probe or the
	// store wrapper: the unwrapped half of the zero-perturbation test.
	raw bool
	// cuts is how many power cuts to spread over the measured phase.
	cuts int
}

type workload struct {
	name string
	// setups is how many times a run sets the workload up; cuts is
	// how many power cuts its crash pass spreads over the measured
	// phase.
	setups, cuts int
	// steady, when set, fails the run unless disk bytes per user byte
	// over the second half of the measured phase is within this share
	// of the first half's, so a resize cannot silently measure a
	// transient.
	steady float64
	setup  func(seed int64) (fixture, error)
}

var workloads = []workload{
	{"smallfile", 52, 128, 0, func(seed int64) (fixture, error) { return setupSmallfile(seed, smallFiles) }},
	{"cleaning", 6, 256, steadyBound, func(seed int64) (fixture, error) { return setupCleaning(seed, cleanDefault) }},
	{"fsync", 6, 256, 0, func(seed int64) (fixture, error) { return setupFsync(seed, fsyncOps) }},
}

// steadyBound is the bound BENCHMARK.json sets on
// disk_bytes_per_user_byte.
const steadyBound = 0.10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "smallfile, cleaning or fsync")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "host seconds of measured phase per run")
	trace := flag.Int("trace", 0, "1 traces every other repetition and reports per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	flag.Parse()
	runtime.GOMAXPROCS(1)
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsperf:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and assembles the result.
func run(w workload, seed int64, seconds time.Duration, traced bool, spanDir string) (*result, error) {
	fx, setupS, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer fx.volume().release()

	// The first repetition is the crash pass: it cuts power at points
	// spread over the measured phase and recovers each image. The power
	// cuts cost host time, so its host-clock figures are not used.
	crash, err := fx.measure(runOpts{cuts: w.cuts})
	if err != nil {
		return nil, err
	}
	var plain, traces []*rep
	var prof *profile
	if traced {
		prof = &profile{layers: map[string]int64{}}
	}
	var measured time.Duration
	var lastTracer *tracer
	for i := 0; measured < seconds || len(plain) == 0 || (traced && len(traces) == 0); i++ {
		o := runOpts{}
		if traced && i%2 == 1 {
			o.tr = newTracer()
			prof.start()
		}
		r, err := fx.measure(o)
		if o.tr != nil {
			if perr := prof.stop(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return nil, err
		}
		measured += r.wall
		if o.tr != nil {
			traces = append(traces, r)
			lastTracer = o.tr
		} else {
			plain = append(plain, r)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]*rep{crash}, plain...), traces...)
	for _, r := range all {
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "lfsperf:", e)
		}
		res.Attempted += r.ops
		res.Failed += r.failed
		if r.sig != crash.sig {
			fmt.Fprintf(os.Stderr, "lfsperf: repetitions differ in simulation:\n%s\n%s\n", crash.sig, r.sig)
			res.Correct = false
		}
	}
	if h := crash.halves; w.steady > 0 {
		if d := math.Abs(h[1]/h[0] - 1); d > w.steady {
			fmt.Fprintf(os.Stderr, "lfsperf: not steady: disk bytes per user byte %.4f then %.4f\n", h[0], h[1])
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if !traced {
		endToEnd(res, crash, plain, setupS)
		return res, nil
	}
	if spanDir != "" {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		if err := lastTracer.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
			return nil, err
		}
	}
	perLayer(res, crash, plain, traces, prof, fx.volume())
	return res, nil
}

// setUp sets the workload up w.setups times and keeps the first. It
// returns the CPU seconds of each but the first, which pays for
// growing the heap and faulting its pages in; the later ones reuse
// them.
func setUp(w workload, seed int64) (fixture, []float64, error) {
	var fx fixture
	var secs []float64
	for i := 0; i < w.setups; i++ {
		runtime.GC()
		c0 := cpuNow()
		f, err := w.setup(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		if fx == nil {
			fx = f
			continue
		}
		secs = append(secs, (cpuNow() - c0).Seconds())
		if f.volume().sig() != fx.volume().sig() {
			return nil, nil, fmt.Errorf("%s set-up is not deterministic: %s then %s", w.name, fx.volume().sig(), f.volume().sig())
		}
		f.volume().release()
	}
	return fx, secs, nil
}

// endToEnd fills the metrics of an untraced run. Simulated-clock
// metrics and the live heap come from the crash pass (every repetition
// is identical); allocations are the median over the timed
// repetitions. Host timings are not among them: see hostTimes.
func endToEnd(res *result, r *rep, reps []*rep, setupS []float64) {
	simLat := make([]float64, len(r.simLat))
	for i, d := range r.simLat {
		simLat[i] = float64(d) / 1e6
	}
	sort.Float64s(simLat)
	var allocs, allocKB []float64
	for _, q := range reps {
		allocs = append(allocs, float64(q.mallocs)/float64(q.ops))
		allocKB = append(allocKB, float64(q.rt.allocBytes)/1024/float64(q.ops))
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("sim_ops_per_s", "ops/s", float64(r.ops)/r.simElapsed.Seconds())
	set("sim_lat_p50_ms", "ms", quantile(simLat, 0.5))
	set("sim_lat_p99_ms", "ms", quantile(simLat, 0.99))
	set("disk_bytes_per_user_byte", "ratio", r.bytesRatio())
	set("recovery_ms", "ms", medianCut(r.cuts, func(c cut) float64 { return float64(c.recovery) / 1e6 }))
	set("allocs_per_op", "allocs/op", median(allocs))
	set("alloc_kb_per_op", "KB/op", median(allocKB))
	set("heap_peak_mb", "MB", float64(r.heapPeak)/(1<<20))
	set("setup_s", "s", median(setupS))
}

// hostTimes fills the host-clock metrics from the untraced
// repetitions: the median over them of ops per CPU second and per wall
// second of the measured phase, and of the median and 99th percentile
// op on the CPU clock. They are per-layer metrics, which carry no
// bound, because on a shared host they are not steady enough for one:
// the same seed's CPU time moves by up to half between stretches of a
// few minutes as the load on the host changes (PREDICTIONS.md, Host
// time).
func hostTimes(res *result, reps []*rep) {
	var cpuRate, wallRate, p50, p99 []float64
	for _, q := range reps {
		lat := make([]float64, len(q.cpuLat))
		for i, d := range q.cpuLat {
			lat[i] = float64(d) / 1e3
		}
		sort.Float64s(lat)
		cpuRate = append(cpuRate, float64(q.ops)/q.cpu.Seconds())
		wallRate = append(wallRate, float64(q.ops)/q.wall.Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, res.Metrics[name].Unit} }
	set("host.ops_per_cpu_s", median(cpuRate))
	set("host.ops_per_wall_s", median(wallRate))
	set("host.op_cpu_p50_us", median(p50))
	set("host.op_cpu_p99_us", median(p99))
}

// perLayer fills the metrics of a traced run: the median over traced
// repetitions of each layer metric, self time from the CPU profile,
// the Go runtime, recovery, the steady-state guards and the cost of
// tracing itself.
func perLayer(res *result, crash *rep, plain, traces []*rep, prof *profile, vol *volume) {
	vals := map[string][]float64{}
	var plainWall, tracedWall []float64
	for _, r := range plain {
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range traces {
		tracedWall = append(tracedWall, r.wall.Seconds())
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
		add := func(k string, v float64) { vals[k] = append(vals[k], v) }
		add("runtime.gc_cpu_frac", ratio(r.rt.gcCPU, r.rt.totalCPU))
		add("runtime.gc_cycles", float64(r.rt.gcCycles))
		add("runtime.alloc_mb", float64(r.rt.allocBytes)/(1<<20))
	}
	for _, def := range layerCatalog() {
		v, ok := vals[def.name]
		var x float64
		if ok {
			x = median(v)
		}
		res.Metrics[def.name] = metric{x, def.unit}
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, res.Metrics[name].Unit} }
	for _, l := range cpuLayers {
		set(l+".cpu_frac", ratio(float64(prof.layers[l]), float64(prof.total)))
	}
	set("core.recovery.units", medianCut(crash.cuts, func(c cut) float64 { return float64(c.units) }))
	set("core.recovery.wall_ms", medianCut(crash.cuts, func(c cut) float64 { return float64(c.wall) / 1e6 }))
	set("traced.overhead_frac", median(tracedWall)/median(plainWall)-1)
	set("op_fail_frac", float64(res.Failed)/float64(res.Attempted))
	set("guard.setup_cleaner_runs_min", float64(vol.cleanerRuns))
	hostTimes(res, plain)
	if h := traces[0].halves; h[0] > 0 {
		set("guard.half_drift", math.Abs(h[1]/h[0]-1))
	}
}

// medianCut returns the median of f over the power cuts.
func medianCut(cuts []cut, f func(cut) float64) float64 {
	v := make([]float64, len(cuts))
	for i, c := range cuts {
		v[i] = f(c)
	}
	return median(v)
}

// metricDef names a per-layer metric.
type metricDef struct{ name, unit, better string }

// layerCatalog lists every per-layer metric a traced run reports.
func layerCatalog() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, op := range callOps {
		p := "core." + op
		add(p+".count", "count", "higher")
		add(p+".fail", "count", "lower")
		add(p+".wall_p50_us", "us", "lower")
		add(p+".wall_p99_us", "us", "lower")
		add(p+".sim_p50_ms", "ms", "lower")
		add(p+".sim_p99_ms", "ms", "lower")
	}
	for _, l := range cpuLayers {
		add(l+".cpu_frac", "fraction", "lower")
	}
	add("cache.hit_rate", "fraction", "higher")
	add("cache.evictions", "count", "lower")
	add("core.cleaner.segments_cleaned", "count", "lower")
	add("core.cleaner.live_frac", "fraction", "lower")
	add("core.cleaner.read_mb", "MB", "lower")
	add("core.cleaner.busy_share", "fraction", "lower")
	add("core.cleaner.space_amp", "ratio", "lower")
	add("core.log.group_commits", "count", "lower")
	add("core.log.piggyback_frac", "fraction", "higher")
	add("core.log.segments_sealed", "count", "lower")
	add("core.checkpoint.count", "count", "lower")
	add("core.checkpoint.busy_share", "fraction", "lower")
	add("core.recovery.units", "count", "lower")
	add("core.recovery.wall_ms", "ms", "lower")
	add("disk.write_kb_per_req", "KB", "higher")
	add("disk.busy_frac", "fraction", "lower")
	add("disk.queue_wait_ms_mean", "ms", "lower")
	add("disk.seeks_per_op", "1/op", "lower")
	add("disk.reads_per_read_op", "1/op", "lower")
	for _, c := range busyCauses {
		add("disk.busy_share."+c.String(), "fraction", "lower")
	}
	add("disk.store.wall_frac", "fraction", "lower")
	add("disk.store.calls", "count", "lower")
	add("disk.store.mb_written", "MB", "lower")
	add("sched.events_per_op", "1/op", "lower")
	add("shard.ops_imbalance", "ratio", "lower")
	for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
		better := "lower"
		if k == obs.PhaseCPU {
			better = "higher"
		}
		add("obs.phase."+k.String()+".share", "fraction", better)
	}
	add("runtime.gc_cpu_frac", "fraction", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.alloc_mb", "MB", "lower")
	add("host.ops_per_cpu_s", "ops/s", "higher")
	add("host.ops_per_wall_s", "ops/s", "higher")
	add("host.op_cpu_p50_us", "us", "lower")
	add("host.op_cpu_p99_us", "us", "lower")
	add("traced.overhead_frac", "fraction", "lower")
	add("op_fail_frac", "fraction", "lower")
	add("guard.setup_cleaner_runs_min", "count", "higher")
	add("guard.half_drift", "fraction", "lower")
	return defs
}

// profile collects the CPU profiles of the traced repetitions.
type profile struct {
	buf    bytes.Buffer
	layers map[string]int64
	total  int64
}

func (p *profile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		panic(err) // only one profile runs at a time, and this is it
	}
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	n, err := selfTime(p.buf.Bytes(), p.layers)
	p.total += n
	return err
}

// quantile returns the p-quantile of sorted values (nearest rank).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// median returns the median of values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
