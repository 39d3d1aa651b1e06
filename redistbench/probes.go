package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sim/ps"
	"repro/internal/synthapp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shape sizes the layer probes after one workload: the pending-event
// depth, live process count, concurrent CPU tasks and network flows it
// runs at, the world sizes of its point-to-point, collective and
// one-sided traffic, the rank count of its resilient cells, and the job
// count of its traces. The planner and core-pass probes run at the same
// sizes on every full workload: the planner at the largest scale-shrink
// RMA cell, one pass of each method at a mid-size shrink.
type shape struct {
	depth, procs, tasks, flows    int
	p2pRanks, collRanks, rmaRanks int
	ladderRanks, jobs             int
	planRanks, passRanks          int
}

const (
	planRanks = 3000
	passRanks = 128
)

func smokeShape() shape {
	return shape{
		depth: 64, procs: 16, tasks: 8, flows: 16,
		p2pRanks: 16, collRanks: 16, rmaRanks: 16,
		ladderRanks: 16, jobs: 40, planRanks: 256, passRanks: 16,
	}
}

// runProbes times each layer's public functions at the workload's shapes
// and returns the per-layer metrics. Probes are deterministic simulations;
// only their host times vary.
func runProbes(sh shape, tr *tracer) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	timed := func(name string, f func()) {
		tr.cell = -1
		sp := tr.begin("probe " + name)
		f()
		tr.end(sp)
	}

	timed("sim", func() {
		put("sim.event_ns", "ns", probeEvents(sh.depth, 200000))
		put("sim.handoff_ns", "ns", probeHandoff(sh.procs, 100000))
	})
	timed("ps", func() {
		ns, exp := ladder(sh.tasks, func(n int) float64 { return probePS(n, 100000) })
		put("ps.task_ns", "ns", ns)
		put("ps.exp", "exponent", exp)
	})
	timed("netmodel", func() {
		ns, exp := ladder(sh.flows, func(n int) float64 { return probeFlows(n, 100000) })
		put("netmodel.flow_ns", "ns", ns)
		put("netmodel.exp", "exponent", exp)
	})
	timed("mpi", func() {
		put("mpi.sendrecv_ns", "ns", probeSendrecv(sh.p2pRanks, 10000))
		ms, exp := ladder(sh.collRanks, probeAlltoallv)
		put("mpi.alltoallv_ms", "ms", ms)
		put("mpi.alltoallv.exp", "exponent", exp)
		var create float64
		ms, exp = ladder(sh.rmaRanks, func(n int) float64 {
			c, f := probeFence(n, 4)
			if n == sh.rmaRanks {
				create = c
			}
			return f
		})
		put("mpi.fence_ms", "ms", ms)
		put("mpi.fence.exp", "exponent", exp)
		put("mpi.wincreate_ms", "ms", create)
	})
	timed("partition+core.plan", func() {
		overlap, plan, waves := probePlanner(sh.planRanks)
		put("partition.overlap_ns_per_rank", "ns", overlap)
		put("core.plan_ns_per_rank", "ns", plan)
		put("core.waves", "waves/rank", waves)
	})
	timed("core.pass", func() {
		for _, c := range []core.CommMethod{core.P2P, core.COL, core.RMA} {
			put("core.pass_ms."+strings.ToLower(c.String()), "ms", probePass(sh.passRanks, c))
		}
	})
	var events []trace.Event
	timed("ladder", func() {
		lp := probeLadder(sh.ladderRanks)
		events = lp.events
		put("ladder.escalations", "count", float64(lp.escalations))
		put("ladder.retransmitted_bytes", "bytes", lp.retransmitted)
		put("fault.injected", "count", float64(lp.injected))
		put("ladder.overhead_ratio", "ratio", lp.overhead)
	})
	timed("obs+trace.record", func() {
		put("obs.record_ns", "ns", probeRecord(events, func() trace.Sink { return obs.NewStream() }))
		put("trace.record_ns", "ns", probeRecord(events, func() trace.Sink { return trace.NewRecorder() }))
	})
	timed("workload+rms", func() {
		rigid, malleable := probeJobs(sh.jobs)
		put("workload.jobs_per_s.rigid", "1/s", rigid)
		put("workload.jobs_per_s.malleable", "1/s", malleable)
		put("rms.cost_ns", "ns", probeCost(200000))
	})
	return m
}

// ladder measures f at n/4, n/2 and n (at least 2) and returns f(n) with
// the fitted scaling exponent of f over the three sizes.
func ladder(n int, f func(int) float64) (float64, float64) {
	var sizes, costs []float64
	for _, s := range []int{n / 4, n / 2, n} {
		if s < 2 {
			s = 2
		}
		sizes = append(sizes, float64(s))
		costs = append(costs, f(s))
	}
	return costs[2], fitExponent(sizes, costs)
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// probeEvents is the hold model: depth pending events, each fire
// schedules its successor a random increment later, for n fires. It
// returns host ns per Kernel.At plus fire.
func probeEvents(depth, n int) float64 {
	k := sim.NewKernel()
	rng := rand.New(rand.NewSource(1))
	fired := 0
	var fire func()
	fire = func() {
		fired++
		if fired <= n {
			k.After(rng.Float64()*float64(depth), fire)
		}
	}
	for i := 0; i < depth; i++ {
		k.At(rng.Float64()*float64(depth), fire)
	}
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), fired)
}

// probeHandoff runs procs processes sleeping in turn and returns host ns
// per Proc.Sleep park and resume.
func probeHandoff(procs, total int) float64 {
	k := sim.NewKernel()
	iters := total / procs
	if iters < 1 {
		iters = 1
	}
	for i := 0; i < procs; i++ {
		d := 1e-3 * (1 + float64(i%7)/7)
		k.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(d)
			}
		})
	}
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), procs*iters)
}

// probePS keeps n tasks running on a 20-core processor-sharing resource,
// replacing each completed task, and returns host ns per Start to done.
// work bounds the task-event work, n * completions, above the four
// rounds of n tasks every size runs.
func probePS(n, work int) float64 {
	k := sim.NewKernel()
	r := ps.NewResource(k, "cpu", 20, 1)
	total := work / n
	if total < 4*n {
		total = 4 * n
	}
	started, done := 0, 0
	var start func()
	start = func() {
		w := 1 + float64(started%5)*0.1
		started++
		r.Start(w, func() {
			done++
			if started < total {
				start()
			}
		})
	}
	k.At(0, func() {
		for i := 0; i < n && started < total; i++ {
			start()
		}
	})
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), done)
}

// probeFlows keeps f flows in flight on an 8-node Ethernet fabric,
// replacing each finished flow, and returns host ns per Transfer start
// and finish.
func probeFlows(f, work int) float64 {
	k := sim.NewKernel()
	const nodes = 8
	fab := netmodel.NewFabric(k, netmodel.Ethernet10G(), nodes)
	total := work / f
	if total < 4*f {
		total = 4 * f
	}
	started, done := 0, 0
	var start func()
	start = func() {
		i := started
		started++
		fab.Transfer(i%nodes, (i+1+i/nodes)%nodes, 64<<10+int64(i%7)<<12, func() {
			done++
			if started < total {
				start()
			}
		})
	}
	k.At(0, func() {
		for i := 0; i < f && started < total; i++ {
			start()
		}
	})
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), done)
}

// newWorld builds a fresh world on the paper's calibrated Ethernet
// cluster.
func newWorld() *mpi.World { return ethernetSetup().NewWorld(0) }

// probeSendrecv runs a ring of Sendrecv exchanges on p ranks and returns
// host ns per Sendrecv.
func probeSendrecv(p, total int) float64 {
	w := newWorld()
	iters := total / p
	if iters < 2 {
		iters = 2
	}
	w.Launch(p, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		r := comm.Rank(c)
		for j := 0; j < iters; j++ {
			c.Sendrecv(comm, (r+1)%p, 7, mpi.Virtual(8), (r+p-1)%p, 7)
		}
	})
	t0 := time.Now()
	if err := w.Kernel().Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), p*iters)
}

// probeAlltoallv returns the host ms of one Alltoallv of 64 bytes per
// pair across p ranks.
func probeAlltoallv(p int) float64 {
	w := newWorld()
	w.Launch(p, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		send := make([]mpi.Payload, p)
		for i := range send {
			send[i] = mpi.Virtual(64)
		}
		c.Alltoallv(comm, send)
	})
	t0 := time.Now()
	if err := w.Kernel().Run(); err != nil {
		panic(err)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// probeFence creates a window on p ranks and then fences it fences times.
// It returns the host ms until the last rank left WinCreate and the host
// ms per Fence after that.
func probeFence(p, fences int) (createMS, fenceMS float64) {
	w := newWorld()
	var created, fenced time.Time
	w.Launch(p, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		win := c.WinCreate(comm, mpi.Virtual(64))
		created = time.Now()
		for j := 0; j < fences; j++ {
			c.Fence(win)
		}
		fenced = time.Now()
	})
	t0 := time.Now()
	if err := w.Kernel().Run(); err != nil {
		panic(err)
	}
	return float64(created.Sub(t0).Nanoseconds()) / 1e6,
		float64(fenced.Sub(created).Nanoseconds()) / 1e6 / float64(fences)
}

// probePlanner enumerates every source's overlaps and wave schedule for
// a 2:1 shrink of ns scale-cell sources and returns host ns per rank for
// each, plus the schedule's waves per source rank.
func probePlanner(ns int) (overlapNS, planNS, wavesPerRank float64) {
	nt := ns / 2
	n := int64(ns) * scaleElemsPerRank
	it := core.NewDenseVirtual("x", n, 8, false)
	src := partition.NewBlockDist(n, ns)
	dst := partition.NewBlockDist(n, nt)

	const reps = 5
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for s := 0; s < ns; s++ {
			partition.VisitSendOverlaps(src, dst, s, func(partition.Chunk) {})
		}
	}
	overlapNS = perOp(time.Since(t0), reps*ns)

	perSource := make([][]partition.Chunk, ns)
	for s := 0; s < ns; s++ {
		perSource[s] = partition.SendOverlaps(src, dst, s)
	}
	totalWaves := 0
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		totalWaves = 0
		for s := 0; s < ns; s++ {
			_, waves, _ := core.PlanWaveSchedule(it, perSource[s], scaleCeiling)
			totalWaves += waves
		}
	}
	planNS = perOp(time.Since(t0), reps*ns)
	return overlapNS, planNS, float64(totalWaves) / float64(ns)
}

// probePass times one sink-free StartReconfig to Wait pass of the scale
// cell at ns sources with the given method (P2P and RMA under the
// ceiling, COL one-shot) and returns the median host ms of three.
func probePass(ns int, comm core.CommMethod) float64 {
	cfg := core.Config{Spawn: core.Merge, Comm: comm, Overlap: core.Sync}
	if comm != core.COL {
		cfg.MemCeiling = scaleCeiling
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		_, d, err := runShrink(ethernetSetup(), ns, cfg, nil)
		if err != nil {
			panic(err)
		}
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms)
}

// ladderProbe is the outcome of the recovery-ladder probe.
type ladderProbe struct {
	escalations, injected int64
	retransmitted         float64
	overhead              float64
	events                []trace.Event
}

// probeLadder runs a resilient Merge P2P shrink of the scale app at ranks
// sources under the ceiling with the counting sink attached: fault-free,
// with the last source crashing at wave 2, with one value payload of the
// second-to-last source dropped at wave 2, and fault-free again. It
// returns the ladder's escalations, retransmitted bytes and injected
// faults over the two faulted runs, their host wall time over that of the
// two fault-free runs, and the crash run's full event log.
func probeLadder(ranks int) ladderProbe {
	s := ethernetSetup()
	s.Cfg = synthapp.ScaleConfig(ranks, scaleElemsPerRank)
	cfg := core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync, MemCeiling: scaleCeiling}
	run := func(actions []fault.Action, rec *trace.Recorder) (*countSink, time.Duration) {
		w := s.NewWorld(0)
		inj := fault.NewInjector(w, fault.Plan{Seed: 1, Actions: actions})
		inj.Arm()
		sink := newCountSink(rec)
		t0 := time.Now()
		_, err := synthapp.Run(w, synthapp.RunParams{
			Cfg: s.Cfg, Malleability: cfg, NS: ranks, NT: ranks / 2, Sink: sink,
			Resilience: &core.Resilience{Detector: inj.Detector()},
		})
		if err != nil {
			panic(fmt.Sprintf("ladder probe at %d ranks: %v", ranks, err))
		}
		return sink, time.Since(t0)
	}
	_, clean1 := run(nil, nil)
	rec := trace.NewRecorder()
	crash, tCrash := run([]fault.Action{{Kind: fault.CrashRank, GID: ranks - 1, Wave: 2}}, rec)
	drop, tDrop := run([]fault.Action{{
		Kind: fault.DropMsg, Src: ranks - 2, Dst: -1, Count: 1, Wave: 2,
		Tag: core.WaveValueTag(0, 1),
	}}, nil)
	_, clean2 := run(nil, nil)
	return ladderProbe{
		escalations:   crash.faults["escalate"] + drop.faults["escalate"],
		injected:      crash.injectedFaults() + drop.injectedFaults(),
		retransmitted: crash.gauges[core.RetransmittedBytesGauge] + drop.gauges[core.RetransmittedBytesGauge],
		overhead:      (tCrash + tDrop).Seconds() / (clean1 + clean2).Seconds(),
		events:        rec.Events(),
	}
}

// probeRecord replays a captured event log into fresh sinks until about
// 300k events have been recorded and returns host ns per event.
func probeRecord(events []trace.Event, fresh func() trace.Sink) float64 {
	if len(events) == 0 {
		return 0
	}
	reps := 1 + 300000/len(events)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		s := fresh()
		for _, ev := range events {
			s.Record(ev)
		}
	}
	return perOp(time.Since(t0), reps*len(events))
}

// clusterCluster is clustersim's default machine: 8 nodes x 20 cores on
// Ethernet.
func clusterCluster() cluster.Config {
	cl := cluster.Default(netmodel.Ethernet10G())
	cl.Nodes, cl.CoresPerNode = 8, 20
	return cl
}

// probeJobs runs a bursty trace of jobs jobs under the rigid policy and
// under the three malleable ones, and returns jobs scheduled per host
// second for each side.
func probeJobs(jobs int) (rigid, malleable float64) {
	cl := clusterCluster()
	js, err := workload.Generate(workload.GenSpec{
		Kind: "bursty", Seed: 7, Jobs: jobs, Cores: cl.Nodes * cl.CoresPerNode,
		Load: 1, MalleableFrac: 1,
	})
	if err != nil {
		panic(err)
	}
	cost := harness.DefaultClusterCost(cl)
	var rigidT, mallT time.Duration
	mallRuns := 0
	for _, pol := range workload.Policies() {
		t0 := time.Now()
		if _, err := workload.Run(js, workload.Params{Cluster: cl, Cost: cost, Policy: pol}); err != nil {
			panic(err)
		}
		if pol.Name() == "rigid" {
			rigidT += time.Since(t0)
		} else {
			mallT += time.Since(t0)
			mallRuns++
		}
	}
	return float64(len(js)) / rigidT.Seconds(), float64(len(js)*mallRuns) / mallT.Seconds()
}

// probeCost prices n reconfigurations with DefaultClusterCost and returns
// host ns per call.
func probeCost(n int) float64 {
	cost := harness.DefaultClusterCost(clusterCluster())
	var sink float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += cost(1+i%160, 1+(i/160)%160, int64(i%1000)<<20)
	}
	d := time.Since(t0)
	if sink < 0 {
		panic("negative reconfiguration cost")
	}
	return perOp(d, n)
}
