package ps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const tol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSingleTaskRunsAtPerTaskCap(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 20, 1)
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		r.Use(p, 3) // 3 units of work at rate 1
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 3) {
		t.Fatalf("done at %g, want 3", done)
	}
}

func TestUncappedTaskUsesFullCapacity(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "nic", 10, 0)
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		r.Use(p, 30)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 3) {
		t.Fatalf("done at %g, want 3 (30 work / 10 capacity)", done)
	}
}

func TestEqualSharingBetweenTwoTasks(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var d1, d2 float64
	k.Spawn("a", func(p *sim.Proc) {
		r.Use(p, 1)
		d1 = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		r.Use(p, 1)
		d2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share a single core: each runs at 0.5 → both finish at 2.
	if !near(d1, 2) || !near(d2, 2) {
		t.Fatalf("done at %g, %g, want 2, 2", d1, d2)
	}
}

func TestOversubscriptionDilatesCompute(t *testing.T) {
	// 20-core node, 40 single-core tasks: each task of 1s work takes 2s.
	k := sim.NewKernel()
	r := NewResource(k, "node0", 20, 1)
	var finish []float64
	for i := 0; i < 40; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			r.Use(p, 1)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finish {
		if !near(f, 2) {
			t.Fatalf("finish at %g, want 2 under 2x oversubscription", f)
		}
	}
}

func TestNoDilationWhenUnderCapacity(t *testing.T) {
	// 20-core node, 10 single-core tasks: no slowdown.
	k := sim.NewKernel()
	r := NewResource(k, "node0", 20, 1)
	var finish []float64
	for i := 0; i < 10; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			r.Use(p, 1)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finish {
		if !near(f, 1) {
			t.Fatalf("finish at %g, want 1", f)
		}
	}
}

func TestDynamicRateChange(t *testing.T) {
	// Task A (2 units) runs alone on 1 core for 1s (1 unit done), then B
	// arrives; both at 0.5. A's remaining unit takes 2s → A ends at 3.
	// B (0.5 units) gets 0.5 rate until A leaves... B: needs 0.5 at rate 0.5
	// → done at t=2. Then A alone finishes remaining 0.5 at rate 1 → 2.5.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var da, db float64
	k.Spawn("a", func(p *sim.Proc) {
		r.Use(p, 2)
		da = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(1)
		r.Use(p, 0.5)
		db = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(db, 2) {
		t.Fatalf("b done at %g, want 2", db)
	}
	if !near(da, 2.5) {
		t.Fatalf("a done at %g, want 2.5", da)
	}
}

func TestAddLoadDilutesFiniteTasks(t *testing.T) {
	// One core; a spinner load plus one 1-unit task → task runs at 0.5.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	load := r.AddLoad()
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		r.Use(p, 1)
		done = p.Now()
		load.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 2) {
		t.Fatalf("done at %g, want 2 with spinner load", done)
	}
}

func TestStopRemovesLoad(t *testing.T) {
	// Spinner stops at t=1: task (2 units) runs at 0.5 for 1s, then 1.0.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	load := r.AddLoad()
	k.Spawn("stopper", func(p *sim.Proc) {
		p.Sleep(1)
		if !load.Stop() {
			t.Error("Stop returned false for live load")
		}
		if load.Stop() {
			t.Error("second Stop returned true")
		}
	})
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		r.Use(p, 2)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 2.5) {
		t.Fatalf("done at %g, want 2.5", done)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var done float64 = -1
	k.Spawn("p", func(p *sim.Proc) {
		p.Sleep(1)
		r.Use(p, 0)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 1) {
		t.Fatalf("done at %g, want 1", done)
	}
}

func TestStartCallbackFires(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 2, 1)
	var at float64 = -1
	k.At(0, func() {
		r.Start(4, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(at, 4) {
		t.Fatalf("callback at %g, want 4", at)
	}
}

func TestTaskStopCancelsCompletion(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	fired := false
	var task *Task
	k.At(0, func() {
		task = r.Start(5, func() { fired = true })
	})
	k.At(1, func() { task.Stop() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("done callback fired after Stop")
	}
	if r.Load() != 0 {
		t.Fatalf("Load = %d after Stop, want 0", r.Load())
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Start(-1) did not panic")
		}
	}()
	r.Start(-1, nil)
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(cap=0) did not panic")
		}
	}()
	NewResource(sim.NewKernel(), "x", 0, 1)
}

// Property: total service conservation. With n equal tasks of equal work on
// one resource, every task finishes at n*work/min(capacity, n*perTask)... in
// the capped regime the finish time is work/rate with rate shared equally.
func TestPropertyEqualTasksFinishTogether(t *testing.T) {
	f := func(nRaw uint8, capRaw, workRaw uint16) bool {
		n := int(nRaw%16) + 1
		capacity := 1 + float64(capRaw%64)
		work := 0.001 + float64(workRaw)/1024
		k := sim.NewKernel()
		r := NewResource(k, "cpu", capacity, 1)
		finish := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *sim.Proc) {
				r.Use(p, work)
				finish = append(finish, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		rate := capacity / float64(n)
		if rate > 1 {
			rate = 1
		}
		want := work / rate
		for _, f := range finish {
			if !near(f, want) {
				return false
			}
		}
		return len(finish) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// oracle is the processor-sharing algorithm the virtual clock replaced:
// every task keeps its own residue, and every event scans all of them. It
// is kept here only to check Resource against.
type oracle struct {
	k                 *sim.Kernel
	capacity, perTask float64
	tasks             map[*oracleTask]struct{}
	lastUpdate        float64
	timer             *sim.Timer
	nextSeq           uint64
}

type oracleTask struct {
	o         *oracle
	seq       uint64
	remaining float64
	infinite  bool
	done      func()
	stopped   bool
}

func newOracle(k *sim.Kernel, capacity, perTask float64) *oracle {
	return &oracle{k: k, capacity: capacity, perTask: perTask, tasks: map[*oracleTask]struct{}{}}
}

func (o *oracle) rate() float64 {
	if len(o.tasks) == 0 {
		return 0
	}
	rate := o.capacity / float64(len(o.tasks))
	if o.perTask > 0 && rate > o.perTask {
		rate = o.perTask
	}
	return rate
}

func (o *oracle) advance() {
	now := o.k.Now()
	elapsed := now - o.lastUpdate
	o.lastUpdate = now
	if elapsed <= 0 || len(o.tasks) == 0 {
		return
	}
	served := o.rate() * elapsed
	for t := range o.tasks {
		if !t.infinite {
			t.remaining = math.Max(t.remaining-served, 0)
		}
	}
}

func (o *oracle) reschedule() {
	if o.timer != nil {
		o.timer.Cancel()
		o.timer = nil
	}
	rate := o.rate()
	earliest := math.Inf(1)
	for t := range o.tasks {
		if !t.infinite && t.remaining/rate < earliest {
			earliest = t.remaining / rate
		}
	}
	if !math.IsInf(earliest, 1) {
		o.timer = o.k.After(earliest, o.onCompletion)
	}
}

func (o *oracle) onCompletion() {
	o.timer = nil
	o.advance()
	var finished []*oracleTask
	now, rate := o.k.Now(), o.rate()
	for t := range o.tasks {
		if !t.infinite && (t.remaining <= 1e-12 || now+t.remaining/rate == now) {
			finished = append(finished, t)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
	for _, t := range finished {
		delete(o.tasks, t)
		t.stopped = true
	}
	o.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}

func (o *oracle) attach(t *oracleTask) *oracleTask {
	o.advance()
	t.o, t.seq = o, o.nextSeq
	o.nextSeq++
	o.tasks[t] = struct{}{}
	o.reschedule()
	return t
}

func (o *oracle) Start(work float64, done func()) *oracleTask {
	t := o.attach(&oracleTask{remaining: work, done: done})
	if work == 0 {
		o.k.After(0, func() {
			if !t.stopped {
				delete(o.tasks, t)
				t.stopped = true
				o.advance()
				o.reschedule()
				if t.done != nil {
					t.done()
				}
			}
		})
	}
	return t
}

func (o *oracle) AddLoad() *oracleTask { return o.attach(&oracleTask{infinite: true}) }

func (t *oracleTask) Remaining() float64 { return t.remaining }

func (t *oracleTask) Stop() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	t.o.advance()
	delete(t.o.tasks, t)
	t.o.reschedule()
	return true
}

// handle is what the differential driver needs of a task from either
// implementation.
type handle interface {
	Stop() bool
	Remaining() float64
}

// psOp is one scripted call: at time at, start copies tasks of work (a
// load when work < 0), or, when stop >= 0, Stop the handle stop modulo the
// number of handles made so far (tasks and loads). Copies started at one
// instant complete at one instant, so their callbacks' order is checked
// too. A started task with a positive then starts a follow-up of that work
// when it completes, so done callbacks attach tasks too.
type psOp struct {
	at, work, then float64
	copies, stop   int
}

// outcome is a completion of task id at time at, or, for id < 0, the
// Remaining() value at returned by a Stop.
type outcome struct {
	id int
	at float64
}

func randomScript(rng *rand.Rand, n int) []psOp {
	ops := make([]psOp, n)
	for i := range ops {
		op := psOp{at: rng.Float64() * 40, copies: 1, stop: -1}
		switch x := rng.Float64(); {
		case x < 0.2:
			op.stop = rng.Intn(1 << 20)
		case x < 0.4:
			op.work = -1
		case x < 0.5:
			// zero work
		default:
			op.work = rng.ExpFloat64() * 3
			if rng.Intn(4) == 0 {
				op.copies += rng.Intn(5)
			}
			if rng.Intn(3) == 0 {
				op.then = rng.ExpFloat64()
			}
		}
		ops[i] = op
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// runScript plays ops against one implementation and returns the
// completions, in the order their callbacks ran, and the Remaining() of
// each task a Stop detached (-1 when it was no longer attached).
func runScript[T handle](k *sim.Kernel, start func(float64, func()) T, addLoad func() T, ops []psOp) []outcome {
	var got []outcome
	var handles []T
	ids := 0
	var startTask func(work, then float64)
	startTask = func(work, then float64) {
		id := ids
		ids++
		handles = append(handles, start(work, func() {
			got = append(got, outcome{id, k.Now()})
			if then > 0 {
				startTask(then, 0)
			}
		}))
	}
	for _, op := range ops {
		op := op
		k.At(op.at, func() {
			switch {
			case op.stop >= 0:
				if len(handles) > 0 {
					h := handles[op.stop%len(handles)]
					rem := -1.0
					if h.Stop() {
						rem = h.Remaining()
					}
					got = append(got, outcome{-1, rem})
				}
			case op.work < 0:
				handles = append(handles, addLoad())
			default:
				for i := 0; i < op.copies; i++ {
					startTask(op.work, op.then)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return got
}

func TestResourceMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := float64(1 + rng.Intn(8))
		perTask := 0.0
		if seed%2 == 0 {
			perTask = 1
		}
		ops := randomScript(rng, 10+rng.Intn(120))
		k1, k2 := sim.NewKernel(), sim.NewKernel()
		r, o := NewResource(k1, "cpu", capacity, perTask), newOracle(k2, capacity, perTask)
		got := runScript(k1, r.Start, r.AddLoad, ops)
		want := runScript(k2, o.Start, o.AddLoad, ops)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d outcomes, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].id != want[i].id || !near(got[i].at, want[i].at) {
				t.Fatalf("seed %d: outcome %d is task %d at %.17g, oracle task %d at %.17g",
					seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
	}
}

// TestLongHorizon starts a short task after 1e6 s of service: the clock
// rebases once no finite task holds a tag, so the new task's residue is
// its work exactly, not a difference of two numbers near 1e6.
func TestLongHorizon(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	load := r.AddLoad()
	var a, b float64
	k.At(0, func() { r.Start(5e5, func() { a = k.Now() }) })
	k.At(2e6, func() {
		load.Stop()
		task := r.Start(0.3, func() { b = k.Now() })
		if got := task.Remaining(); got != 0.3 {
			t.Errorf("Remaining() = %.17g right after Start(0.3), want 0.3", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(a, 1e6) || !near(b, 2e6+0.3) {
		t.Fatalf("done at %.17g and %.17g, want 1e6 and 2e6+0.3", a, b)
	}
}

// BenchmarkResource keeps n finite tasks attached to a 20-core resource,
// replacing each one that completes, and brackets every completion with a
// load AddLoad/Stop pair as a polling wait does. One op is one completion.
func BenchmarkResource(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := sim.NewKernel()
			r := NewResource(k, "cpu", 20, 1)
			started := 0
			var start func()
			start = func() {
				w := 1 + float64(started%7)*0.1
				started++
				r.Start(w, func() {
					r.AddLoad().Stop()
					if started < n+b.N {
						start()
					}
				})
			}
			k.At(0, func() {
				for i := 0; i < n; i++ {
					start()
				}
			})
			b.ResetTimer()
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
