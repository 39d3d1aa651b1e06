package mpi

import (
	"strings"
	"testing"
)

// TestBarrier drives the one rendezvous of a matching context through every
// operation that arrives on it and through member deaths. Each case runs a
// world; ranks mark the virtual time they leave each step, and every live
// member must leave a step at the same instant (want pins that instant
// where the case fixes it). wantErr, when set, is a substring of the run's
// error; otherwise the run must drain cleanly.
func TestBarrier(t *testing.T) {
	type rank struct {
		c    *Ctx
		comm *Comm
		mark func(step string)
	}
	cases := []struct {
		name   string
		ranks  int
		kill   int // gid killed at killAt; -1 for none
		killAt float64
		body   func(r rank)
		want   map[string]float64
		// wantErr is a substring of the run's error; "" requires a clean run.
		wantErr string
	}{
		{
			// FastBarrier, WinCreate and Fence share one generation counter
			// on the parent comm; Spawn joins it, and on the resulting
			// inter-communicator FastBarrier, WinCreate, Fence and Merge
			// share another, across both groups.
			name: "interleaved operations", ranks: 3, kill: -1,
			body: func(r rank) {
				c, comm := r.c, r.comm
				me := comm.Rank(c)
				stagger := func() { c.Sleep(float64(me+1) * 0.25) }
				stagger()
				comm.FastBarrier(c)
				r.mark("fast")
				stagger()
				win := c.WinCreate(comm, Virtual(8))
				r.mark("wincreate")
				stagger()
				c.Fence(win)
				r.mark("fence")
				stagger()
				comm.FastBarrier(c)
				r.mark("fast2")
				child := func(k *Ctx, _ *Comm) {
					parent := k.Proc().Parent()
					k.Sleep(float64(parent.Rank(k)+1) * 0.5)
					parent.FastBarrier(k)
					r.mark("inter-fast")
					w := k.WinCreate(parent, Virtual(8))
					r.mark("inter-wincreate")
					k.Fence(w)
					r.mark("inter-fence")
					joint := parent.Merge(k, true)
					r.mark("merge")
					if joint.Size() != 5 || joint.Rank(k) < 3 {
						panic("children must take the high ranks of the merged comm")
					}
					joint.FastBarrier(k)
					r.mark("joint")
				}
				inter := c.Spawn(comm, 2, nil, child)
				inter.FastBarrier(c)
				r.mark("inter-fast")
				w := c.WinCreate(inter, Virtual(8))
				r.mark("inter-wincreate")
				c.Fence(w)
				r.mark("inter-fence")
				joint := inter.Merge(c, false)
				r.mark("merge")
				if joint.Rank(c) != me {
					panic("parents must keep their ranks in the merged comm")
				}
				joint.FastBarrier(c)
				r.mark("joint")
			},
			want: map[string]float64{"fast": 0.75, "wincreate": 1.5, "fence": 2.25, "fast2": 3},
		},
		{
			// g2 dies before ever arriving, and before the barrier exists:
			// the survivors complete every generation without it.
			name: "member dies before arriving", ranks: 3, kill: 2, killAt: 1,
			body: func(r rank) {
				c, comm := r.c, r.comm
				if comm.Rank(c) == 2 {
					c.Sleep(10)
				}
				c.Sleep(2 + float64(comm.Rank(c)))
				comm.FastBarrier(c)
				r.mark("first")
				win := c.WinCreate(comm, Virtual(8))
				c.Fence(win)
				r.mark("fence")
			},
			want: map[string]float64{"first": 3, "fence": 3},
		},
		{
			// g1 dies parked in the barrier: its arrival still counts, the
			// generation completes when g2 arrives, and the next generation
			// no longer waits for g1.
			name: "member dies while others wait", ranks: 3, kill: 1, killAt: 1,
			body: func(r rank) {
				c, comm := r.c, r.comm
				if comm.Rank(c) == 2 {
					c.Sleep(2)
				}
				comm.FastBarrier(c)
				r.mark("first")
				comm.FastBarrier(c)
				r.mark("second")
			},
			want: map[string]float64{"first": 2, "second": 2},
		},
		{
			// The last straggler's death completes the generation at the
			// instant it dies.
			name: "last straggler dies", ranks: 3, kill: 2, killAt: 1,
			body: func(r rank) {
				c, comm := r.c, r.comm
				if comm.Rank(c) == 2 {
					c.Sleep(10)
				}
				win := c.WinCreate(comm, Virtual(8))
				r.mark("wincreate")
				c.Fence(win)
				r.mark("fence")
			},
			want: map[string]float64{"wincreate": 1, "fence": 1},
		},
		{
			// The barrier excuses a root that died before spawning; the
			// survivors must fail loudly rather than return a nil comm.
			name: "spawn root dies before spawning", ranks: 3, kill: 0, killAt: 1,
			body: func(r rank) {
				c, comm := r.c, r.comm
				if comm.Rank(c) == 0 {
					c.Sleep(10)
				}
				c.Spawn(comm, 1, nil, func(*Ctx, *Comm) {})
				r.mark("spawned")
			},
			wantErr: "Spawn on comm 1: root g0 died before spawning",
		},
		{
			// A live member that never arrives is a genuine wedge, named in
			// the deadlock report.
			name: "fastbarrier wedge", ranks: 2, kill: -1,
			body: func(r rank) {
				if r.comm.Rank(r.c) == 0 {
					r.comm.FastBarrier(r.c)
				}
			},
			wantErr: "FastBarrier on comm 1: waiting for g1",
		},
		{
			name: "fence wedge", ranks: 3, kill: -1,
			body: func(r rank) {
				win := r.c.WinCreate(r.comm, Virtual(8))
				if r.comm.Rank(r.c) != 1 {
					r.c.Fence(win)
				}
			},
			wantErr: "Fence on comm 1: waiting for g1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, 2, 4, defaultTestOptions())
			left := map[string][]float64{}
			w.Launch(tc.ranks, nil, func(c *Ctx, comm *Comm) {
				tc.body(rank{c: c, comm: comm, mark: func(step string) {
					left[step] = append(left[step], w.Kernel().Now())
				}})
			})
			if tc.kill >= 0 {
				w.Kernel().At(tc.killAt, func() { w.KillProcess(tc.kill) })
			}
			err := w.Kernel().Run()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for step, ts := range left {
				for _, at := range ts[1:] {
					if at != ts[0] {
						t.Errorf("%s: members left at %v, want one instant", step, ts)
						break
					}
				}
			}
			for step, at := range tc.want {
				if ts := left[step]; len(ts) == 0 || ts[0] != at {
					t.Errorf("%s: left at %v, want %v", step, ts, at)
				}
			}
		})
	}
}
