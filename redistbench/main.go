// Command redistbench is the repository's end-to-end benchmark. One run
// measures one named workload in a fresh process and prints, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics:
//
//	redistbench -workload scale-shrink -seed 1 -seconds 40 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
// cell_p50_ms, cell_tail_ms, peak_rss_mb, alloc_mb, setup_s); with
// -trace 1 they are the per-layer ones: a traced re-run of part of the
// workload, with spans around the benchmark's calls into each layer and a
// counting sink attached, followed by probes that time each layer's
// public functions at the workload's shapes.
//
// Every cell's simulated output is checked against the committed
// reference under ref/; a cell fails when it errors, deadlocks or departs
// from its reference. -write-ref regenerates a reference from the current
// sources, and -smoke selects the small variant of each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redistbench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	writeRef bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("redistbench", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "repository root: spans and build outputs go under <root>/.bench_build")
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: picks each cell's input variant")
	fs.Float64Var(&o.seconds, "seconds", passSeconds, "measured seconds: the fixed pass of cells repeats floor(seconds / pass) times, at least once")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "run the small variant of the workload")
	fs.BoolVar(&o.writeRef, "write-ref", false, "regenerate the workload's reference outputs under ref/ and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if lookupWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace %d (want 0 or 1)", o.trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds %v (want > 0)", o.seconds)
	}
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w := lookupWorkload(o.workload)
	if o.writeRef {
		return writeReference(w, o.smoke)
	}
	res, notes, err := measure(w, o)
	if err != nil {
		return err
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// measure runs one workload end to end (trace 0) or traced (trace 1) and
// returns the result plus the human-readable lines printed before it.
func measure(w *benchWorkload, o options) (result, []string, error) {
	env := newEnvelope(o)

	// Set-up is repeated and its median reported, so a change that moves
	// work into set-up shows; the last repetition's cells are measured.
	var (
		setups []float64
		cells  []cell
		ref    *reference
		err    error
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if ref, err = loadReference(w, o.smoke); err != nil {
			return result{}, nil, err
		}
		cells = w.setup(o.smoke, o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		res   result
		notes []string
	)
	if o.trace == 0 {
		var times []cellTime
		res, notes, times = measureEndToEnd(w, o, cells, ref)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		err = writeRecord(o, "cells", times)
	} else {
		var spans []span
		res, notes, spans = measureTraced(w, o, cells, ref)
		err = writeRecord(o, "spans", spans)
	}
	if err != nil {
		return result{}, nil, err
	}
	env.finish()
	envLine, err := json.Marshal(map[string]any{"envelope": env})
	if err != nil {
		return result{}, nil, err
	}
	notes = append(notes, string(envLine))
	return res, notes, nil
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// passSeconds is the nominal host time of one pass of a workload's cells
// on a two-vCPU Xeon VM; a run repeats the pass floor(seconds/passSeconds)
// times, at least once.
const passSeconds = 12

// runOutcome is one timed cell: its host wall time and, for campaign
// calls that complete several cells, the per-cell laps.
type runOutcome struct {
	wall time.Duration
	laps []time.Duration
	outs []output
	err  error
}

// runCell executes one cell and checks its outputs against the reference.
func runCell(c cell, m runMode, tr *tracer, ref *reference) (runOutcome, bool) {
	t0 := time.Now()
	outs, laps, err := c.run(m, tr)
	ro := runOutcome{wall: time.Since(t0), laps: laps, outs: outs, err: err}
	if err != nil {
		return ro, false
	}
	return ro, ref.check(outs) == nil
}

// cellTimes returns the per-cell latencies of an outcome: its laps when
// the call completed several cells, its wall time otherwise.
func (ro runOutcome) cellTimes() []time.Duration {
	if len(ro.laps) > 0 {
		return ro.laps
	}
	return []time.Duration{ro.wall}
}

// cellTime is one timed call's per-cell latencies, kept so a noisy run
// can be examined cell by cell.
type cellTime struct {
	ID string    `json:"id"`
	MS []float64 `json:"ms"`
}

// measureEndToEnd runs the fixed pass of cells passes times and derives
// the end-to-end metrics. Wall, CPU and allocation are per pass.
//
// Before each call the heap is collected and returned to the kernel and
// the resident-set high-water mark reset, so each call's peak is its own
// need rather than what the previous call left resident. That collection
// is not timed: wall and CPU time sum the calls.
func measureEndToEnd(w *benchWorkload, o options, cells []cell, ref *reference) (result, []string, []cellTime) {
	passes := int(o.seconds / passSeconds)
	if passes < 1 {
		passes = 1
	}
	var (
		lat, callPeaks     []float64
		times              []cellTime
		attempted, failed  int
		firstErr           string
		before, after      runtime.MemStats
		passWalls, passCPU []float64
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	for p := 0; p < passes; p++ {
		var wall, cpu float64
		for _, c := range cells {
			debug.FreeOSMemory()
			rssReset := resetPeakRSS()
			c0 := cpuSeconds()
			ro, ok := runCell(c, timed, nil, ref)
			cpu += cpuSeconds() - c0
			wall += ro.wall.Seconds()
			if rssReset {
				callPeaks = append(callPeaks, peakRSSMB())
			}
			ct := cellTime{ID: c.id}
			for _, d := range ro.cellTimes() {
				ct.MS = append(ct.MS, float64(d.Nanoseconds())/1e6)
			}
			lat = append(lat, ct.MS...)
			times = append(times, ct)
			attempted += c.count
			if !ok {
				failed += c.count
				if firstErr == "" {
					firstErr = describeFailure(c, ro, ref)
				}
			}
		}
		passWalls = append(passWalls, wall)
		passCPU = append(passCPU, cpu)
	}
	runtime.ReadMemStats(&after)

	p50 := hdQuantile(lat, 0.5)
	tail, tailPct, beyond := tailLatency(lat)
	// The process-lifetime VmHWM is the maximum of every call's peak, and
	// a call's peak includes the heap overshoot of whichever GC cycle ran
	// late, so the maximum jumps by half from run to run. The Harrell-Davis
	// estimate of the per-call peaks at the tail latency's percentile
	// follows the largest calls' memory need without resting on one call.
	peakRSS := peakRSSMB()
	switch {
	case len(callPeaks) != len(cells)*passes:
	case beyond > 0:
		peakRSS = hdQuantile(callPeaks, tailPct/100)
	default:
		peakRSS = slices.Max(callPeaks)
	}
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":       {median(passWalls), "s"},
			"cpu_s":        {median(passCPU), "s"},
			"cell_p50_ms":  {p50, "ms"},
			"cell_tail_ms": {tail, "ms"},
			"peak_rss_mb":  {peakRSS, "MB"},
			"alloc_mb":     {float64(after.TotalAlloc-before.TotalAlloc) / float64(passes) / 1e6, "MB"},
		},
	}
	notes := []string{fmt.Sprintf("# %s: %d pass(es) of %d calls, %d timed cells; Harrell-Davis cell_p50_ms over %d cells; cell_tail_ms is p%.1f with %d cells beyond it; peak_rss_mb is p%.1f of %d per-call peaks",
		w.name, passes, len(cells), len(lat), len(lat), tailPct, beyond, tailPct, len(callPeaks))}
	if firstErr != "" {
		notes = append(notes, "# first failure: "+firstErr)
	}
	return res, notes, times
}

// describeFailure names why a cell failed: its error or its first
// departure from the reference.
func describeFailure(c cell, ro runOutcome, ref *reference) string {
	if ro.err != nil {
		return fmt.Sprintf("%s: %v", c.id, ro.err)
	}
	return fmt.Sprintf("%s: %v", c.id, ref.check(ro.outs))
}

// tailLatency estimates the highest percentile of xs with at least ten
// samples beyond it, p = 100(n-10)/n, and returns it with p and how many
// samples lie beyond. With ten samples or fewer no such percentile exists
// and the maximum is returned with zero beyond.
func tailLatency(xs []float64) (v, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return slices.Max(xs), 100, 0
	}
	p := float64(n-10) / float64(n)
	return hdQuantile(xs, p), 100 * p, 10
}

// writeRecord stores a run's per-cell times or spans as JSON under the
// build directory, named after the workload and seed.
func writeRecord(o options, kind string, v any) error {
	dir := filepath.Join(o.root, ".bench_build", "redistbench", kind)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
