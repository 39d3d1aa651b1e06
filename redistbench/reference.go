package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"
)

// output is one simulated result row of a cell. Exact fields (counts,
// survival, rungs, error lines, configuration names) must match the
// reference exactly; Sim fields are simulated seconds and rates, which
// may differ by the reference's relative tolerance.
type output struct {
	Key   string    `json:"key"`
	Exact []string  `json:"exact"`
	Sim   []float64 `json:"sim"`
}

// simRTol is the relative tolerance on simulated values. It admits the
// floating-point re-association seen when only the order of accumulation
// changes (3155.80525 s against 3155.80034 s is 1.6e-6) and rejects model
// drift, which moves results by whole percents.
const simRTol = 1e-5

// reference is a workload's committed set of expected outputs, covering
// every input variant any seed can pick.
type reference struct {
	Workload string   `json:"workload"`
	Smoke    bool     `json:"smoke"`
	RTol     float64  `json:"rtol"`
	Outputs  []output `json:"outputs"`

	byKey map[string]output
}

//go:embed ref
var refFS embed.FS

func refName(w *benchWorkload, smoke bool) string {
	if smoke {
		return w.name + ".smoke.json"
	}
	return w.name + ".json"
}

// loadReference reads the workload's embedded reference.
func loadReference(w *benchWorkload, smoke bool) (*reference, error) {
	b, err := refFS.ReadFile("ref/" + refName(w, smoke))
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w (regenerate with -write-ref)", w.name, err)
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", w.name, err)
	}
	if r.Workload != w.name || r.Smoke != smoke || r.RTol <= 0 {
		return nil, fmt.Errorf("reference for %s: header names %q smoke=%v rtol=%v", w.name, r.Workload, r.Smoke, r.RTol)
	}
	r.byKey = make(map[string]output, len(r.Outputs))
	for _, o := range r.Outputs {
		r.byKey[o.Key] = o
	}
	return &r, nil
}

// check returns the first departure of outs from the reference.
func (r *reference) check(outs []output) error {
	if len(outs) == 0 {
		return fmt.Errorf("cell produced no output")
	}
	for _, o := range outs {
		want, ok := r.byKey[o.Key]
		if !ok {
			return fmt.Errorf("%s: no reference output", o.Key)
		}
		if !reflect.DeepEqual(o.Exact, want.Exact) {
			return fmt.Errorf("%s: exact fields %q, reference %q", o.Key, o.Exact, want.Exact)
		}
		if len(o.Sim) != len(want.Sim) {
			return fmt.Errorf("%s: %d simulated values, reference %d", o.Key, len(o.Sim), len(want.Sim))
		}
		for i, v := range o.Sim {
			if !closeTo(v, want.Sim[i], r.RTol) {
				return fmt.Errorf("%s: simulated value %d is %v, reference %v", o.Key, i, v, want.Sim[i])
			}
		}
	}
	return nil
}

func closeTo(a, b, rtol float64) bool {
	return math.Abs(a-b) <= rtol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// writeReference runs every cell of every input variant and stores the
// outputs as the workload's reference under ref/ in the source tree.
// Cells whose inputs do not depend on the variant run once per variant
// and must agree exactly: a mismatch is non-determinism and aborts.
func writeReference(w *benchWorkload, smoke bool) error {
	all := map[string]output{}
	for v := 0; v < w.variants; v++ {
		v := v
		t0 := time.Now()
		for _, c := range w.cells(smoke, func(int) int { return v }) {
			outs, _, err := c.run(timed, nil)
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", c.id, v, err)
			}
			for _, o := range outs {
				if prev, ok := all[o.Key]; ok && !reflect.DeepEqual(prev, o) {
					return fmt.Errorf("%s: output differs between runs: %v vs %v", o.Key, prev, o)
				}
				all[o.Key] = o
			}
		}
		fmt.Printf("variant %d: %d outputs, %.1f s\n", v, len(all), time.Since(t0).Seconds())
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"workload\": %q, \"smoke\": %v, \"rtol\": %g, \"outputs\": [\n", w.name, smoke, simRTol)
	for i, k := range keys {
		line, err := json.Marshal(all[k])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(keys)-1 {
			sep = "\n"
		}
		buf.Write(line)
		buf.WriteString(sep)
	}
	buf.WriteString("]}\n")
	path := filepath.Join(sourceDir(), "ref", refName(w, smoke))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d reference outputs to %s\n", len(keys), path)
	return nil
}

// sourceDir is the benchmark's source directory: the working directory
// when run from it (go run ., go test), else redistbench/ under it.
func sourceDir() string {
	if _, err := os.Stat("go.mod"); err == nil {
		if b, err := os.ReadFile("go.mod"); err == nil && bytes.Contains(b, []byte("module repro/redistbench")) {
			return "."
		}
	}
	return "redistbench"
}
