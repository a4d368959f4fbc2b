package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"tss/internal/faultfs"
	"tss/internal/vfs"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   0.6,
		trace:     trace,
		dir:       t.TempDir() + "/run",
		setupReps: 1,
		warmup:    100 * time.Millisecond,
	}
}

// layerUse gives, per workload, the layers it drives, as README.md's
// table has them, and the metrics of those layers that name a verb the
// workload never issues.
var layerUse = map[string]struct{ layers, idle []string }{
	"smallfile-dsfs": {
		layers: []string{"chirp_server", "wire", "chirp_client", "abstraction", "adapter", "process"},
		idle: []string{"chirp_server.lease_us", "chirp_server.lease_grants_per_op", "chirp_server.lease_breaks_per_op",
			"chirp_client.lease_us", "chirp_client.part_us"},
	},
	"bulk-cfs": {
		layers: []string{"chirp_server", "wire", "chirp_client", "abstraction", "adapter", "vfs_copy", "process"},
		idle: []string{"chirp_server.stat_us", "chirp_server.pwrite_us", "chirp_server.getdir_us", "chirp_server.getfile_us",
			"chirp_server.lease_us", "chirp_server.lease_grants_per_op", "chirp_server.lease_breaks_per_op",
			"chirp_client.stat_us", "chirp_client.pwrite_us", "chirp_client.getdir_us", "chirp_client.getfile_us",
			"chirp_client.lease_us", "adapter.stat_us", "adapter.pwrite_us", "adapter.readdir_us"},
	},
	"cached-zipf": {
		layers: []string{"chirp_server", "wire", "chirp_client", "cache", "adapter", "process"},
		idle: []string{"chirp_server.getdir_us", "chirp_server.getfile_us", "chirp_client.getdir_us",
			"chirp_client.getfile_us", "chirp_client.part_us", "adapter.readdir_us"},
	},
}

// healthyZero are the per-layer metrics that read 0 in a run without
// faults on every workload.
var healthyZero = []string{"chirp_server.shed_per_op", "adapter.retries_per_op"}

// checkLayerValue requires a per-layer metric to read > 0 when its
// workload drives its layer and verb, and exactly 0 otherwise, so a
// metric wired to the wrong counter or span fails in either direction.
func checkLayerValue(t *testing.T, workload, name string, v float64) {
	t.Helper()
	use, ok := layerUse[workload]
	if !ok {
		t.Fatalf("no layer table for workload %s", workload)
	}
	layer, _, _ := strings.Cut(name, ".")
	switch {
	case name == "trace.overhead_pct": // either sign
	case slices.Contains(healthyZero, name) || !slices.Contains(use.layers, layer) || slices.Contains(use.idle, name):
		if v != 0 {
			t.Errorf("%s: %s = %v, want 0", workload, name, v)
		}
	case v <= 0:
		t.Errorf("%s: %s = %v, want > 0", workload, name, v)
	}
}

// A short run of every workload emits exactly the metrics
// BENCHMARK.json names, each with its unit, and reads no wrong byte.
// End-to-end metrics are positive; per-layer ones follow layerUse.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := runBench(shortConfig(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%t: %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%t: %s = %v", w.Name, trace, name, m.Value)
				case trace:
					checkLayerValue(t, w.Name, name, m.Value)
				case m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// A byte flipped under the stack — by faultfs between the layers and
// the chirp client — is caught as a wrong read on every workload.
func TestFlippedByteIsWrongRead(t *testing.T) {
	for _, w := range workloads {
		cfg := shortConfig(t, w.name, false)
		cfg.wrap = func(fs vfs.FileSystem) vfs.FileSystem {
			f := faultfs.New(fs)
			f.CorruptRandomly(0.001, 11)
			return f
		}
		res, err := runBench(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corruption went unnoticed: correct=%t failed=%d", w.name, res.Correct, res.Failed)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},   // 0: root
		{parent: 0, start: 10, end: 40},    // 1: overlaps 2
		{parent: 0, start: 30, end: 60},    // 2
		{parent: 0, start: 80, end: 120},   // 3: runs past its parent
		{parent: 1, start: 15, end: 20},    // 4
		{parent: -1, start: 200, end: 210}, // 5: a root without children
	}
	// Root: 100 minus the union [10,60] + [80,100] = 30.
	want := []int64{30, 25, 30, 40, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}
