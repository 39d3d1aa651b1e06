package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the printed metrics against.
type benchmarkSpec struct {
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

// exactCounts are the per-layer metrics that are deterministic counts and
// must repeat bit for bit between runs.
var exactCounts = []string{
	"mpi.msgs", "mpi.bytes", "core.waves",
	"ladder.escalations", "ladder.retransmitted_bytes", "fault.injected",
}

func runSmoke(t *testing.T, workload string, traced int) result {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-root", t.TempDir(), "-smoke", "-workload", workload,
		"-seed", "5", "-seconds", "1", "-trace", strconv.Itoa(traced)}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace %d: %v", workload, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %d: last line is not a result: %v", workload, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %d: correct=%v attempted=%d failed=%d\n%s",
			workload, traced, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if lookupWorkload(wl.Name) == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	return spec
}

// TestSmoke runs the smoke size of every workload, untraced and traced,
// twice each: every metric BENCHMARK.json names is printed with its unit,
// every cell matches the reference, and the exact counts repeat.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			e2e := runSmoke(t, wl.name, 0)
			if len(e2e.Metrics) != len(spec.EndToEnd) {
				t.Errorf("trace 0 printed %d metrics, BENCHMARK.json names %d", len(e2e.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("trace 0: metric %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			again := runSmoke(t, wl.name, 0)
			if again.Attempted != e2e.Attempted {
				t.Errorf("attempted cells differ between runs: %d vs %d", e2e.Attempted, again.Attempted)
			}

			first := runSmoke(t, wl.name, 1)
			second := runSmoke(t, wl.name, 1)
			if len(first.Metrics) != len(spec.PerLayer) {
				t.Errorf("trace 1 printed %d metrics, BENCHMARK.json names %d", len(first.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := first.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("trace 1: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s differs between runs: %v vs %v", name, a, b)
				}
			}
			if first.Attempted != second.Attempted {
				t.Errorf("traced attempted cells differ between runs: %d vs %d", first.Attempted, second.Attempted)
			}
		})
	}
}

// TestLayerMap checks that layers.json describes exactly the benchmark's
// workloads and the per-layer metrics BENCHMARK.json names.
func TestLayerMap(t *testing.T) {
	spec := readSpec(t)
	var layers struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatalf("layers.json: %v", err)
	}
	if len(layers.Workloads) != len(workloads) || len(layers.PerLayer) != len(spec.PerLayer) {
		t.Fatalf("layers.json has %d workloads and %d per-layer metrics, want %d and %d",
			len(layers.Workloads), len(layers.PerLayer), len(workloads), len(spec.PerLayer))
	}
	for _, w := range workloads {
		if _, ok := layers.Workloads[w.name]; !ok {
			t.Errorf("layers.json does not describe workload %s", w.name)
		}
	}
	for _, m := range spec.PerLayer {
		if _, ok := layers.PerLayer[m.Name]; !ok {
			t.Errorf("layers.json does not map per-layer metric %s", m.Name)
		}
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	// For the values 1..n the Harrell-Davis estimate of the p-quantile is
	// p*n + 1/2: 30.5 at p75 and 20.5 at p50.
	v, pct, beyond := tailLatency(xs)
	if math.Abs(v-30.5) > 1e-6 || pct != 75 || beyond != 10 {
		t.Errorf("tailLatency = %v, p%v, %d beyond; want 30.5, p75, 10", v, pct, beyond)
	}
	if v, _, beyond := tailLatency(xs[:5]); v != 40 || beyond != 0 {
		t.Errorf("tailLatency of five = %v with %d beyond; want the maximum 40 with 0", v, beyond)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-20.5) > 1e-6 {
		t.Errorf("hdQuantile(p50) = %v, want 20.5", got)
	}
	if got := incBeta(0.3, 2, 3); math.Abs(got-0.3483) > 1e-12 {
		t.Errorf("incBeta(0.3, 2, 3) = %v, want 0.3483", got)
	}
}

func TestReferenceCheck(t *testing.T) {
	ref := &reference{RTol: simRTol, byKey: map[string]output{
		"a": {Key: "a", Exact: []string{"1"}, Sim: []float64{3155.80525}},
	}}
	if err := ref.check([]output{{Key: "a", Exact: []string{"1"}, Sim: []float64{3155.80034}}}); err != nil {
		t.Errorf("re-association drift rejected: %v", err)
	}
	for _, bad := range []output{
		{Key: "a", Exact: []string{"2"}, Sim: []float64{3155.80525}},
		{Key: "a", Exact: []string{"1"}, Sim: []float64{3160}},
		{Key: "b", Exact: []string{"1"}, Sim: []float64{3155.80525}},
	} {
		if err := ref.check([]output{bad}); err == nil {
			t.Errorf("check accepted %+v", bad)
		}
	}
}
