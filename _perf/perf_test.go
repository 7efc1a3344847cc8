package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// small holds the workloads at test size.
var small = []workload{
	{"smallfile", 2, 4, 0, func(seed int64) (fixture, error) { return setupSmallfile(seed, 400) }},
	{"cleaning", 2, 8, 0, func(seed int64) (fixture, error) {
		return setupCleaning(seed, cleanSizes{age: 4096, ops: 4096 + cleanSyncEvery/2})
	}},
	{"fsync", 2, 8, 0, func(seed int64) (fixture, error) { return setupFsync(seed, 128) }},
}

// imageHash hashes every byte of the volume's disks.
func imageHash(t *testing.T, v *volume) string {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, 1<<20)
	for _, st := range v.stores {
		for off := int64(0); off < st.Size(); off += int64(len(buf)) {
			n := min(int64(len(buf)), st.Size()-off)
			if err := st.ReadAt(buf[:n], off); err != nil {
				t.Fatal(err)
			}
			h.Write(buf[:n])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The probe, the store wrapper and the trace recorder must not change
// the simulation: a wrapped, traced repetition and an unwrapped one
// reach the same simulated outcome and byte-identical disk images.
func TestZeroPerturbation(t *testing.T) {
	for _, w := range small {
		t.Run(w.name, func(t *testing.T) {
			fx, err := w.setup(7)
			if err != nil {
				t.Fatal(err)
			}
			defer fx.volume().release()
			raw, err := fx.measure(runOpts{raw: true})
			if err != nil {
				t.Fatal(err)
			}
			rawImage := imageHash(t, fx.volume())
			traced, err := fx.measure(runOpts{tr: newTracer()})
			if err != nil {
				t.Fatal(err)
			}
			if raw.failed != 0 || traced.failed != 0 {
				t.Fatalf("failures: raw %v, traced %v", raw.errs, traced.errs)
			}
			if raw.sig != traced.sig {
				t.Errorf("simulated outcome differs:\nraw    %s\ntraced %s", raw.sig, traced.sig)
			}
			if img := imageHash(t, fx.volume()); img != rawImage {
				t.Errorf("disk image differs: raw %s, traced %s", rawImage, img)
			}
		})
	}
}

// simMetrics are the end-to-end metrics read off the simulated clock.
var simMetrics = []string{"sim_ops_per_s", "sim_lat_p50_ms", "sim_lat_p99_ms", "disk_bytes_per_user_byte", "recovery_ms"}

// A seed names its inputs: two runs of one seed agree on every
// simulated metric, and another seed passes every check too.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range small {
		t.Run(w.name, func(t *testing.T) {
			a, err := run(w, 3, time.Nanosecond, false, "")
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(w, 3, time.Nanosecond, false, "")
			if err != nil {
				t.Fatal(err)
			}
			c, err := run(w, 4, time.Nanosecond, false, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{a, b, c} {
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("run failed its checks: %+v", r)
				}
			}
			differ := false
			for _, m := range simMetrics {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: seed 3 gave %v then %v", m, a.Metrics[m], b.Metrics[m])
				}
				differ = differ || a.Metrics[m] != c.Metrics[m]
			}
			if !differ {
				t.Errorf("seeds 3 and 4 give identical simulated metrics: the seed does not reach the inputs")
			}
		})
	}
}

// A traced run reports exactly the catalogued per-layer metrics, and
// the CPU profile attributes all of its samples to some layer.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	want := map[string]string{}
	for _, d := range layerCatalog() {
		want[d.name] = d.unit
	}
	for _, w := range small {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, 5, 200*time.Millisecond, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed its checks: %+v", res)
			}
			got := map[string]string{}
			var cpu float64
			for k, m := range res.Metrics {
				got[k] = m.Unit
				if len(k) > 9 && k[len(k)-9:] == ".cpu_frac" {
					cpu += m.Value
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics differ from the catalog:\ngot  %v\nwant %v", got, want)
			}
			if cpu < 0.999 || cpu > 1.001 {
				t.Errorf("cpu_frac over all layers sums to %v, want 1", cpu)
			}
		})
	}
}

// BENCHMARK.json must describe what the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, program %v", names, w.name)
		}
	}
	var got []metricDef
	for _, m := range spec.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	if want := layerCatalog(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer differs from layerCatalog:\ngot  %v\nwant %v", got, want)
	}
	res := &result{Metrics: map[string]metric{}}
	r := &rep{ops: 1, simElapsed: 1, written: 1, user: 1, cuts: []cut{{}}}
	endToEnd(res, r, []*rep{r}, []float64{1})
	var units, keys []string
	for _, m := range spec.EndToEnd {
		units = append(units, m.Name+" "+m.Unit)
		if m.Name == "disk_bytes_per_user_byte" && m.Bound != steadyBound {
			t.Errorf("disk_bytes_per_user_byte bound %v, steadyBound %v", m.Bound, steadyBound)
		}
	}
	for k, m := range res.Metrics {
		keys = append(keys, k+" "+m.Unit)
	}
	sort.Strings(units)
	sort.Strings(keys)
	if !reflect.DeepEqual(units, keys) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", units, keys)
	}
}
