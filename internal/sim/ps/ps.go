// Package ps implements processor-sharing resources in virtual time.
//
// A Resource has a total service capacity (for a CPU: number of cores; each
// unit of capacity serves one unit of work per second) shared equally among
// the tasks currently attached to it, with an optional per-task rate cap
// (a single-threaded task cannot use more than one core). When tasks join or
// leave, every remaining task's service rate changes instantly — the fluid
// approximation of a time-sliced scheduler.
//
// This is the mechanism that reproduces oversubscription: 40 runnable
// contexts on a 20-core node each progress at half speed, exactly the effect
// the paper attributes to Baseline reconfigurations and polling waits.
//
// Every attached task receives service at the same rate, so one virtual
// service clock describes them all: it counts the service each attached
// task has received, and a finite task finishes when the clock reaches its
// finish tag (the clock at its start plus its work). Finite tasks wait in a
// min-heap on their tags; load tasks are only counted. A change in the
// number of tasks costs O(1) plus a timer re-arm, and starting, stopping or
// completing a finite task costs O(log n).
package ps

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Resource is a processor-sharing server. Create with NewResource; the zero
// value is not usable. All methods must be called from scheduler context.
type Resource struct {
	k        *sim.Kernel
	name     string
	signal   string  // name of the signal Use waits on
	capacity float64 // total service rate (e.g. cores)
	perTask  float64 // max rate of one task (e.g. 1.0 core); 0 means no cap

	n          int      // attached tasks, finite and load
	vtime      float64  // service each attached task received since the last rebase
	tags       taskHeap // finite tasks, earliest finish tag first
	lastUpdate float64
	timer      *sim.Timer
	nextSeq    uint64
}

// Task is a unit of demand attached to a Resource. Finite tasks complete
// after their work is served; load tasks (see AddLoad) only consume capacity.
type Task struct {
	r         *Resource
	seq       uint64
	tag       float64 // vtime at which a finite task's work is served
	index     int     // position in r.tags; -1 for a load or detached task
	remaining float64 // unserved work, frozen when a finite task detaches
	done      func()
	stopped   bool
}

// NewResource creates a processor-sharing resource. capacity is the total
// service rate; perTask caps the rate a single task may receive (0 = no cap).
func NewResource(k *sim.Kernel, name string, capacity, perTask float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("ps: resource %q with non-positive capacity %g", name, capacity))
	}
	return &Resource{
		k:        k,
		name:     name,
		signal:   "ps:" + name,
		capacity: capacity,
		perTask:  perTask,
	}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total service rate.
func (r *Resource) Capacity() float64 { return r.capacity }

// Load reports the number of attached tasks (finite and load tasks).
func (r *Resource) Load() int { return r.n }

// Rate reports the current service rate of each task.
func (r *Resource) Rate() float64 { return r.rate(r.n) }

func (r *Resource) rate(n int) float64 {
	if n == 0 {
		return 0
	}
	rate := r.capacity / float64(n)
	if r.perTask > 0 && rate > r.perTask {
		rate = r.perTask
	}
	return rate
}

// advance moves the service clock to now. With no finite task holding a
// tag the clock rebases to 0, so tag - vtime keeps its precision however
// much service the resource has delivered.
func (r *Resource) advance() {
	now := r.k.Now()
	elapsed := now - r.lastUpdate
	r.lastUpdate = now
	if len(r.tags) == 0 {
		r.vtime = 0
		return
	}
	if elapsed > 0 {
		r.vtime += r.Rate() * elapsed
	}
}

// residue is the unserved work of a finite task as of the last advance.
func (r *Resource) residue(t *Task) float64 {
	return max(t.tag-r.vtime, 0)
}

// reschedule arms the completion timer for the earliest finishing task.
func (r *Resource) reschedule() {
	if r.timer != nil {
		r.timer.Cancel()
		r.timer = nil
	}
	if len(r.tags) == 0 {
		return
	}
	r.timer = r.k.After(r.residue(r.tags[0])/r.Rate(), r.onCompletion)
}

// detach removes t from the resource, freezing a finite task's residue.
func (r *Resource) detach(t *Task) {
	t.stopped = true
	r.n--
	if t.index >= 0 {
		t.remaining = r.residue(t)
		heap.Remove(&r.tags, t.index)
	}
}

func (r *Resource) onCompletion() {
	r.timer = nil
	r.advance()
	// Collect completions first: done callbacks may attach new tasks.
	var finished []*Task
	const eps = 1e-12
	now := r.k.Now()
	rate := r.Rate()
	for len(r.tags) > 0 {
		t := r.tags[0]
		// Done when the residue is negligible or when serving it cannot
		// advance the clock (the completion event would re-fire at the same
		// timestamp forever).
		if res := t.tag - r.vtime; res > eps && now+res/rate != now {
			break
		}
		r.detach(t)
		finished = append(finished, t)
	}
	// Tags order the heap; callbacks fire in start order, as a
	// reproducible simulation needs.
	slices.SortFunc(finished, func(a, b *Task) int { return cmp.Compare(a.seq, b.seq) })
	r.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}

// Start attaches a finite task demanding work units of service; done runs
// when the task completes. It returns a handle that can cancel the task.
func (r *Resource) Start(work float64, done func()) *Task {
	if work < 0 {
		panic(fmt.Sprintf("ps: negative work %g on %q", work, r.name))
	}
	r.advance()
	t := &Task{r: r, seq: r.nextSeq, tag: r.vtime + work, done: done}
	r.nextSeq++
	r.n++
	heap.Push(&r.tags, t)
	r.reschedule()
	if work == 0 {
		// Zero work still goes through the queue-change cycle so a burst of
		// zero-cost tasks is deterministic, but completes immediately.
		r.k.After(0, func() {
			if !t.stopped {
				r.advance()
				r.detach(t)
				r.reschedule()
				if t.done != nil {
					t.done()
				}
			}
		})
	}
	return t
}

// AddLoad attaches a pure-load task: it consumes a fair share of the
// resource indefinitely (diluting everyone else) but never completes. This
// models a polling wait loop burning a core. Remove it with Stop.
func (r *Resource) AddLoad() *Task {
	r.advance()
	t := &Task{r: r, seq: r.nextSeq, index: -1}
	r.nextSeq++
	r.n++
	r.reschedule()
	return t
}

// Stop detaches the task. It reports whether the task was still attached.
// The done callback of a finite task does not run on Stop.
func (t *Task) Stop() bool {
	if t.stopped {
		return false
	}
	t.r.advance()
	t.r.detach(t)
	t.r.reschedule()
	return true
}

// Remaining reports the unserved work of a finite task as of the last
// change on its resource.
func (t *Task) Remaining() float64 {
	if t.index < 0 {
		return t.remaining
	}
	return t.r.residue(t)
}

// Use blocks the calling process until work units of service have been
// delivered under processor sharing. It is the standard way for a simulated
// computation to consume CPU.
func (r *Resource) Use(p *sim.Proc, work float64) {
	done := sim.NewSignal(r.signal)
	r.Start(work, done.Broadcast)
	p.Wait(done)
}

// taskHeap is a container/heap of finite tasks ordered by (tag, seq); each
// task records its index so Stop can remove it in O(log n).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].tag != h[j].tag {
		return h[i].tag < h[j].tag
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	t.index = -1
	*h = old[:len(old)-1]
	return t
}
