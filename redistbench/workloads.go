package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/synthapp"
)

// cell is one timed call into the program. Most calls simulate one cell;
// a campaign call completes count cells and reports one lap per cell.
type cell struct {
	id    string
	count int
	run   func(m runMode, tr *tracer) ([]output, []time.Duration, error)
}

// runMode is how a call attaches sinks. Timed calls attach what the
// workload's users attach (chaos-scale's campaign meter); bare calls
// attach nothing and are the traced run's baseline; traced calls (with a
// non-nil tracer) record spans and attach the counting sink where the
// program takes one, plus what timed calls attach.
type runMode int

const (
	timed runMode = iota
	bare
	traced
)

// benchWorkload is one named benchmark input family.
type benchWorkload struct {
	name string
	// variants is how many input variants each cell slot has; the seed
	// picks one per slot (variantOf) and the reference covers all of them.
	variants int
	// cells builds the pass: variant(slot) picks each slot's input.
	cells func(smoke bool, variant func(slot int) int) []cell
	// tracedStride selects every tracedStride-th cell for the traced run.
	tracedStride int
	// shape sizes the traced run's layer probes.
	shape func(smoke bool) shape
}

var workloads = []*benchWorkload{
	{name: "scale-shrink", variants: 4, cells: scaleShrinkCells, tracedStride: 4, shape: scaleShrinkShape},
	{name: "chaos-scale", variants: 4, cells: chaosScaleCells, tracedStride: 3, shape: chaosScaleShape},
}

func lookupWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// setup builds the seed's pass of cells and runs the first cell untimed as
// a warm-up. Its outcome is not checked here: the pass runs the same cell
// and counts it as failed if it errs or departs from its reference.
func (w *benchWorkload) setup(smoke bool, seed int64) []cell {
	cells := w.cells(smoke, func(slot int) int { return variantOf(seed, w.variants, slot) })
	_, _, _ = cells[0].run(timed, nil)
	return cells
}

func ethernetSetup() harness.Setup {
	s := harness.DefaultSetup(netmodel.Ethernet10G())
	s.Workers = 1
	return s
}

// ---- scale-shrink --------------------------------------------------------

// Scale cells follow the extreme-scale bench cell: a Merge 2:1 shrink of
// one virtual dense item with 8192 eight-byte elements per source.
const (
	scaleElemsPerRank = 8192
	scaleCeiling      = 16 << 10
)

// scaleLadder is one method's rank ladder: base + step*i for i < n, plus
// jitter*variant, all even so every shrink is exactly 2:1.
type scaleLadder struct {
	comm              core.CommMethod
	ceiling           int64
	base, step, n     int
	jitter            int
	smokeBase, smokeN int
}

var scaleLadders = []scaleLadder{
	{comm: core.P2P, ceiling: scaleCeiling, base: 1024, step: 48, n: 10, jitter: 8, smokeBase: 64, smokeN: 1},
	{comm: core.RMA, ceiling: scaleCeiling, base: 1536, step: 112, n: 10, jitter: 8, smokeBase: 64, smokeN: 1},
	{comm: core.COL, ceiling: 0, base: 112, step: 8, n: 10, jitter: 2, smokeBase: 16, smokeN: 1},
}

// scaleShrinkCells runs redistribution-only shrinks: P2P and RMA at
// thousands of ranks under the 16 KiB per-rank ceiling, one-shot COL at a
// few hundred, no application iterations and no sink.
func scaleShrinkCells(smoke bool, variant func(int) int) []cell {
	s := ethernetSetup()
	var cells []cell
	for _, l := range scaleLadders {
		n, base := l.n, l.base
		if smoke {
			n, base = l.smokeN, l.smokeBase
		}
		for i := 0; i < n; i++ {
			ranks := base + l.step*i + l.jitter*variant(len(cells))
			cfg := core.Config{Spawn: core.Merge, Comm: l.comm, Overlap: core.Sync, MemCeiling: l.ceiling}
			cells = append(cells, cell{
				id:    fmt.Sprintf("%s ranks=%d", cfg, ranks),
				count: 1,
				run: func(_ runMode, tr *tracer) ([]output, []time.Duration, error) {
					end, _, err := runShrink(s, ranks, cfg, tr)
					if err != nil {
						return nil, nil, err
					}
					return []output{{
						Key:   fmt.Sprintf("%s ranks=%d", cfg, ranks),
						Exact: []string{cfg.String(), strconv.Itoa(ranks), strconv.Itoa(ranks / 2), strconv.FormatInt(cfg.MemCeiling, 10)},
						Sim:   []float64{end},
					}}, nil, nil
				},
			})
		}
	}
	return cells
}

// runShrink simulates one 2:1 shrink of the virtual dense item and returns
// the simulated completion time and the host time from the first
// StartReconfig to the last Wait return. With a tracer it records spans
// around the world build, the kernel run and the reconfiguration, and
// attaches the tracer's counting sink.
func runShrink(s harness.Setup, ranks int, cfg core.Config, tr *tracer) (float64, time.Duration, error) {
	nt := ranks / 2
	n := int64(ranks) * scaleElemsPerRank

	sp := tr.begin("world.build")
	w := s.NewWorld(0)
	tr.end(sp)
	if tr != nil {
		w.SetSink(tr.sink)
	}
	var first, last time.Time
	w.Launch(ranks, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		st := core.NewStore()
		it := core.NewDenseVirtual("x", n, 8, false)
		r := int64(comm.Rank(c))
		it.SetBlock(r*scaleElemsPerRank, (r+1)*scaleElemsPerRank)
		st.Register(it)
		if first.IsZero() {
			first = time.Now()
		}
		rc := core.StartReconfig(c, cfg, comm, nt, st,
			func() *core.Store {
				st := core.NewStore()
				st.Register(core.NewDenseVirtual("x", n, 8, false))
				return st
			},
			func(*mpi.Ctx, *mpi.Comm, *core.Store) {})
		rc.Wait(c)
		last = time.Now()
	})
	sp = tr.begin("Kernel.Run")
	err := w.Kernel().Run()
	tr.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("%d-rank %s shrink: %w", ranks, cfg, err)
	}
	tr.add("StartReconfig->Wait", sp, first, last)
	return w.Kernel().Now(), last.Sub(first), nil
}

func scaleShrinkShape(smoke bool) shape {
	if smoke {
		return smokeShape()
	}
	return shape{
		depth: 4096, procs: 2048, tasks: 256, flows: 1024,
		p2pRanks: 2048, collRanks: 192, rmaRanks: 2048,
		ladderRanks: 256, jobs: 100, planRanks: planRanks, passRanks: passRanks,
	}
}

// ---- chaos-scale ---------------------------------------------------------

// chaosRanks are the slots' ~1k source counts, each a 2:1 shrink campaign pair.
var chaosRanks = []int{1024, 992, 960}

const chaosPlans = 3

// chaosScaleCells runs, per slot, the fixed mid-window crash campaign and
// then the seeded chaos campaign over the scale fault family (Merge P2P
// and RMA under the 16 KiB ceiling) on synthapp.ScaleConfig shrinks, with
// the live campaign meter on except in bare calls. A slot's variant shifts
// its rank count; its chaos master seed is fixed, so every seed draws the
// same fault kinds and the pass costs about the same host time.
//
// The harness gives a campaign's worlds no caller-supplied sink, so the
// meter's per-cell obs.Streams are the sink a traced call adds to a bare
// one; the fault campaign's ladder counters come from its meter and are
// output only when it is on.
func chaosScaleCells(smoke bool, variant func(int) int) []cell {
	ranksList, plans := chaosRanks, chaosPlans
	if smoke {
		ranksList, plans = []int{64}, 2
	}
	configs, _ := harness.FaultConfigs("scale") // a fixed, known family
	for i := range configs {
		configs[i].MemCeiling = scaleCeiling
	}
	fp := harness.FaultParams{CrashFrac: 0.5}
	var cells []cell
	for slot, base := range ranksList {
		ranks := base + 16*variant(slot)
		seed := int64(slot + 1)
		p := harness.Pair{NS: ranks, NT: ranks / 2}
		newSetup := func(m runMode) harness.Setup {
			s := ethernetSetup()
			s.Reps = 1
			s.Cfg = synthapp.ScaleConfig(ranks, scaleElemsPerRank)
			if m != bare {
				s.Obs = harness.NewMeter(harness.MeterOptions{Log: io.Discard, Note: func(string) {}})
			}
			return s
		}
		cells = append(cells, cell{
			id:    fmt.Sprintf("fault ranks=%d", ranks),
			count: len(configs),
			run: func(m runMode, tr *tracer) ([]output, []time.Duration, error) {
				s := newSetup(m)
				lap := newLapper()
				sp := tr.begin("RunFaultCampaign")
				rows, err := s.RunFaultCampaign(p, configs, fp, func(line string) {
					if !strings.Contains(line, " DIED: ") {
						lap.mark()
					}
				})
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}
				var outs []output
				for _, r := range rows {
					outs = append(outs, output{
						Key:   fmt.Sprintf("fault ranks=%d %s", ranks, r.Config),
						Exact: []string{strconv.Itoa(r.Runs), strconv.Itoa(r.Survived)},
						Sim:   []float64{r.Overhead, r.RecoveryPath},
					})
				}
				if s.Obs != nil {
					snap := s.Obs.Snapshot()
					tr.addSnapshot(snap)
					outs = append(outs, output{
						Key:   fmt.Sprintf("fault ranks=%d ladder", ranks),
						Exact: ladderCounters(snap),
					})
				}
				return outs, lap.laps, nil
			},
		})
		cells = append(cells, cell{
			id:    fmt.Sprintf("chaos ranks=%d seed=%d", ranks, seed),
			count: len(configs) * plans,
			run: func(m runMode, tr *tracer) ([]output, []time.Duration, error) {
				s := newSetup(m)
				lap := newLapper()
				sp := tr.begin("RunChaosCampaign")
				outcomes, err := s.RunChaosCampaign(p, configs, harness.ChaosParams{
					Seed: seed, Plans: plans, FaultParams: fp,
				}, func(string) { lap.mark() })
				tr.end(sp)
				if err != nil {
					return nil, nil, err
				}
				var outs []output
				for _, o := range outcomes {
					minimal := "-"
					if o.MinimalPlan != nil {
						minimal = strconv.Itoa(len(o.MinimalPlan.Actions))
					}
					outs = append(outs, output{
						Key: fmt.Sprintf("chaos ranks=%d seed=%d %s plan=%d", ranks, seed, o.Config, o.PlanIndex),
						Exact: []string{strconv.Itoa(len(o.Plan.Actions)), strconv.FormatBool(o.Survived),
							o.Err, minimal},
					})
				}
				return outs, lap.laps, nil
			},
		})
	}
	return cells
}

// ladderCounters lists a campaign snapshot's rung escalation and fault
// counters ("rung/2=1", "fault/crash=2", ...) plus the highest rung
// reached (-1: none), in key order.
func ladderCounters(snap obs.Snapshot) []string {
	maxRung := -1
	var out []string
	for _, kv := range snap.Counters {
		if r, ok := strings.CutPrefix(kv.Key, "rung/"); ok {
			if n, err := strconv.Atoi(r); err == nil && kv.Value > 0 && n > maxRung {
				maxRung = n
			}
		}
		if strings.HasPrefix(kv.Key, "rung/") || strings.HasPrefix(kv.Key, "fault/") {
			out = append(out, fmt.Sprintf("%s=%d", kv.Key, kv.Value))
		}
	}
	sort.Strings(out)
	return append(out, fmt.Sprintf("maxRung=%d", maxRung))
}

// lapper splits a campaign call into per-cell laps at each completion.
// The campaign's set-up work before its first completion (fault-free
// probes) is charged to its first cell.
type lapper struct {
	last time.Time
	laps []time.Duration
}

func newLapper() *lapper { return &lapper{last: time.Now()} }

func (l *lapper) mark() {
	now := time.Now()
	l.laps = append(l.laps, now.Sub(l.last))
	l.last = now
}

func chaosScaleShape(smoke bool) shape {
	if smoke {
		return smokeShape()
	}
	return shape{
		depth: 2048, procs: 1024, tasks: 128, flows: 512,
		p2pRanks: 1024, collRanks: 64, rmaRanks: 1024,
		ladderRanks: 1024, jobs: 100, planRanks: planRanks, passRanks: passRanks,
	}
}
