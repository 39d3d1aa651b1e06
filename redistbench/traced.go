package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// span is one timed call from the benchmark into a layer. Spans of one
// cell share its Cell index; Parent is the enclosing span (-1: none).
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer records spans in memory and owns the counting sink attached to
// traced cells. A nil tracer records nothing, so untraced cells share the
// traced code path where they call the same functions.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	cell  int
	sink  *countSink

	// Wire counters of campaign meters: chaos-scale's fault campaigns
	// stream each cell into their meter, not the counting sink.
	snapMsgs, snapBytes int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, sink: newCountSink(nil)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under the current one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Parent: t.cur, Start: t.now()})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = t.now()
	t.cur = t.spans[i].Parent
}

// add records an already-timed span under span parent.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Cell: t.cell, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// addSnapshot folds a campaign meter's wire counters into the totals.
func (t *tracer) addSnapshot(s obs.Snapshot) {
	if t == nil {
		return
	}
	for _, kv := range s.Counters {
		switch {
		case strings.HasPrefix(kv.Key, "wire/msgs/"):
			t.snapMsgs += kv.Value
		case strings.HasPrefix(kv.Key, "wire/bytes/"):
			t.snapBytes += kv.Value
		}
	}
}

// countSink is the benchmark's counting trace.GaugeSink: it counts wire
// messages and bytes the way obs.Stream does (sends at issue, one-sided
// Gets at delivery), fault events by op, and keeps gauge high-water
// marks. It optionally forwards every event to a full recorder.
type countSink struct {
	msgs, bytes int64
	faults      map[string]int64
	gauges      map[string]float64
	rec         *trace.Recorder
}

func newCountSink(rec *trace.Recorder) *countSink {
	return &countSink{faults: map[string]int64{}, gauges: map[string]float64{}, rec: rec}
}

func (s *countSink) Record(ev trace.Event) {
	if s.rec != nil {
		s.rec.Record(ev)
	}
	switch {
	case ev.Kind == trace.EvSend || (ev.Kind == trace.EvRecv && ev.Op == "Get"):
		s.msgs++
		s.bytes += ev.Bytes
	case ev.Kind == trace.EvFault:
		s.faults[ev.Op]++
	}
}

func (s *countSink) SetGauge(name string, v float64) {
	if v > s.gauges[name] {
		s.gauges[name] = v
	}
}

// injectedFaults counts the fault actions the injector carried out, as
// opposed to the protocol's reactions (detect, abort, escalate, ...).
func (s *countSink) injectedFaults() int64 {
	var n int64
	for _, op := range []string{"crash", "drop", "delay", "spawn-fail", "degrade"} {
		n += s.faults[op]
	}
	return n
}

var _ trace.GaugeSink = (*countSink)(nil)

// measureTraced re-runs every tracedStride-th cell twice, bare and then
// traced, checks that the traced outputs agree with the bare ones (sink
// passivity) and the reference, then runs the layer probes.
func measureTraced(w *benchWorkload, o options, cells []cell, ref *reference) (result, []string, []span) {
	tr := newTracer()
	var (
		attempted, failed    int
		firstErr             string
		bareWall, tracedWall time.Duration
	)
	stopSampler, peakGoroutines := sampleGoroutines()
	gcBefore := gcCPU()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	for i := 0; i < len(cells); i += w.tracedStride {
		c := cells[i]
		base, okBase := runCell(c, bare, nil, ref)
		tr.cell = i
		root := tr.begin("cell " + c.id)
		got, okTraced := runCell(c, traced, tr, ref)
		tr.end(root)
		bareWall += base.wall
		tracedWall += got.wall
		attempted += 2 * c.count
		switch {
		case !okBase:
			failed += c.count
			firstErr = firstNonEmpty(firstErr, describeFailure(c, base, ref))
		case !okTraced:
			failed += c.count
			firstErr = firstNonEmpty(firstErr, describeFailure(c, got, ref))
		case !passive(base.outs, got.outs):
			failed += c.count
			firstErr = firstNonEmpty(firstErr, fmt.Sprintf("%s: traced outputs differ from bare ones", c.id))
		}
	}
	runtime.ReadMemStats(&msAfter)
	gcAfter := gcCPU()
	stopSampler()

	m := map[string]metric{
		"trace.overhead":          {tracedWall.Seconds() / bareWall.Seconds(), "ratio"},
		"mpi.msgs":                {float64(tr.sink.msgs + tr.snapMsgs), "count"},
		"mpi.bytes":               {float64(tr.sink.bytes + tr.snapBytes), "bytes"},
		"runtime.gc_cycles":       {float64(msAfter.NumGC - msBefore.NumGC), "count"},
		"runtime.gc_cpu_frac":     {gcAfter.frac(gcBefore), "ratio"},
		"runtime.goroutines_peak": {float64(peakGoroutines()), "count"},
	}
	for k, v := range runProbes(w.shape(o.smoke), tr) {
		m[k] = v
	}
	notes := []string{fmt.Sprintf("# %s traced: %d of %d calls re-run bare and traced; trace.overhead %.3f",
		w.name, (len(cells)+w.tracedStride-1)/w.tracedStride, len(cells), m["trace.overhead"].Value)}
	notes = append(notes, spanSummary(tr.spans)...)
	if firstErr != "" {
		notes = append(notes, "# first failure: "+firstErr)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, notes, tr.spans
}

// passive reports whether every output of the bare call equals the
// traced call's output of the same key. A traced call may add outputs
// that only its sinks produce (chaos-scale's ladder counters), but may not
// change any.
func passive(bare, traced []output) bool {
	byKey := make(map[string]output, len(traced))
	for _, o := range traced {
		byKey[o.Key] = o
	}
	for _, o := range bare {
		if t, ok := byKey[o.Key]; !ok || !reflect.DeepEqual(o, t) {
			return false
		}
	}
	return len(bare) > 0
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// sampleGoroutines polls the goroutine count until stopped; the returned
// peak function is valid after stop.
func sampleGoroutines() (stop func(), peak func() int) {
	var (
		mu   sync.Mutex
		max  = runtime.NumGoroutine()
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				n := runtime.NumGoroutine()
				mu.Lock()
				if n > max {
					max = n
				}
				mu.Unlock()
			}
		}
	}()
	return func() { close(done); wg.Wait() }, func() int {
		mu.Lock()
		defer mu.Unlock()
		return max
	}
}

// gcSample is the runtime's cumulative GC and total CPU seconds.
type gcSample struct{ gc, total float64 }

func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return 0
	}
	return gcSample{gc: f(s[0].Value), total: f(s[1].Value)}
}

// frac is the GC share of CPU time since before.
func (s gcSample) frac(before gcSample) float64 {
	if d := s.total - before.total; d > 0 {
		return (s.gc - before.gc) / d
	}
	return 0
}

// spanSummary lists, per span name, the count, total and self time (the
// span's duration minus the part its child spans cover).
func spanSummary(spans []span) []string {
	type agg struct {
		n           int
		total, self int64
	}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*agg{}
	for i, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, "cell ") {
			name = "cell"
		}
		a := byName[name]
		if a == nil {
			a = &agg{}
			byName[name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[i]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{"# spans: name count total_ms self_ms"}
	for _, n := range names {
		a := byName[n]
		out = append(out, fmt.Sprintf("#   %-22s %6d %10.1f %10.1f", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}
