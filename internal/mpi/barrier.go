package mpi

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// barrier is the one zero-cost rendezvous of a matching context: FastBarrier,
// Spawn, Merge, Split, WinCreate and Fence all arrive on it. MPI orders
// collectives per communicator, so a single generation counter serves every
// one of them. It costs no simulated communication: it is the emulation
// shortcut where ranks only need aligning. For a cost-bearing barrier use
// Ctx.Barrier, which runs the dissemination algorithm over real messages.
//
// Dead members are excused: a generation completes once every live member
// has arrived. Only the event that completes a generation broadcasts — the
// last live arrival, or KillProcess excusing the last straggler — so each
// waiter wakes once per generation, and a wait occupies no core. A waiter's
// deadlock reason (operation, communicator, first live straggler) is
// formatted only if the run deadlocks.
type barrier struct {
	comm    *Comm  // the view that created it; members are local then remote
	seen    []int  // per member: generations it has arrived at
	gen     int    // completed generations
	pending int    // live members yet to arrive in generation gen
	live    int    // members not dead
	op      string // the operation arriving in generation gen
	sig     *sim.Signal
	why     func() string // b.reason, bound once: every waiter parks in generation gen
}

// barrierFor returns the barrier of comm's matching context, shared by both
// views of an inter-communicator.
func (w *World) barrierFor(comm *Comm) *barrier {
	if w.barriers == nil {
		w.barriers = make(map[int]*barrier)
	}
	b, ok := w.barriers[comm.ctxID]
	if !ok {
		b = &barrier{
			comm: comm,
			seen: make([]int, comm.groupSpan()),
			sig:  sim.NewSignal(fmt.Sprintf("mpi.barrier.comm%d", comm.ctxID)),
		}
		b.why = b.reason
		for i := range b.seen {
			if !b.member(i).dead {
				b.live++
			}
		}
		b.pending = b.live
		w.barriers[comm.ctxID] = b
	}
	return b
}

func (b *barrier) member(i int) *Process {
	if n := len(b.comm.local); i >= n {
		return b.comm.remote[i-n]
	}
	return b.comm.local[i]
}

// slot returns p's index among the members.
func (b *barrier) slot(p *Process) (int, bool) {
	if r, ok := b.comm.localRank[p.gid]; ok {
		return r, true
	}
	r, ok := b.comm.remoteRank[p.gid]
	return len(b.comm.local) + r, ok
}

// arrive blocks until every live member has arrived in the caller's
// generation. Exactly one context per process may arrive per generation.
// op names the calling operation in deadlock reports.
func (b *barrier) arrive(c *Ctx, op string) {
	i, ok := b.slot(c.proc)
	if !ok {
		panic(fmt.Sprintf("mpi: %s on comm %d by non-member g%d", op, b.comm.ctxID, c.proc.gid))
	}
	gen := b.gen
	if b.seen[i] > gen {
		panic(fmt.Sprintf("mpi: %s on comm %d: g%d arrived twice in one generation", op, b.comm.ctxID, c.proc.gid))
	}
	b.seen[i] = gen + 1
	b.op = op
	b.pending--
	if b.pending == 0 {
		b.complete()
		return
	}
	for b.gen == gen {
		c.sp.WaitReason(b.sig, b.why)
	}
}

func (b *barrier) complete() {
	b.gen++
	b.pending = b.live
	b.sig.Broadcast()
}

// excuse removes the dead member p from every generation to come and, if p
// was the current generation's last straggler, completes it.
func (b *barrier) excuse(p *Process) {
	i, ok := b.slot(p)
	if !ok {
		return
	}
	b.live--
	if b.seen[i] > b.gen {
		return // arrived before dying: already counted
	}
	b.pending--
	if b.pending == 0 {
		b.complete()
	}
}

// reason names the current generation's operation and its first live
// straggler.
func (b *barrier) reason() string {
	for i, n := range b.seen {
		if m := b.member(i); n <= b.gen && !m.dead {
			return fmt.Sprintf("mpi: %s on comm %d: waiting for g%d", b.op, b.comm.ctxID, m.gid)
		}
	}
	return fmt.Sprintf("mpi: %s on comm %d: generation %d", b.op, b.comm.ctxID, b.gen)
}

// excuseDead tells every barrier p belongs to that p died, in ctxID order so
// the completions' wake-ups are scheduled deterministically.
func (w *World) excuseDead(p *Process) {
	ids := make([]int, 0, len(w.barriers))
	for id := range w.barriers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w.barriers[id].excuse(p)
	}
}
