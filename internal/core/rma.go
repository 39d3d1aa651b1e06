package core

import (
	"fmt"

	"repro/internal/mpi"
)

// rmaTransfer implements the paper's future-work redistribution method
// (§5): one-sided RMA. Sources expose their blocks in windows; targets pull
// exactly the chunks the plan assigns them with MPI_Get, with no source
// CPU in the transfer path. No size messages are needed: both sides derive
// chunk wire offsets from the plan (and, for sparse items, the globally
// known row pointer).
//
// Window exposure snapshots the data (clone at WinCreate), so sources may
// proceed once the access epoch is over; the blocking variant still closes
// with a fence, matching MPI_Win_fence semantics.
type rmaTransfer struct {
	v     *view
	items []Item

	wins []*mpi.Win // one window per item (index parallel to items)
	gets []*mpi.RMAReq
	meta []rmaMeta

	phase     int // 0 = not started, 1 = pulling, 2 = done
	installed bool

	// hooks is the recovery ladder's bookkeeping (nil outside resilient
	// passes). With hooks attached, completed Gets install incrementally so
	// an aborted epoch's delivered chunks are already acked when the next
	// recovery round plans its re-pulls; without hooks the install stays a
	// single bulk pass, preserving the non-resilient timing exactly.
	hooks    *ladderHooks
	prepared map[int]bool

	// ceiling is Config.MemCeiling. When positive, the target issues its
	// Gets in waves whose payload bytes stay within the ceiling, installing
	// each wave before pulling the next; see waves.go. Resilient passes run
	// the same schedule, installing completions incrementally within the
	// active wave.
	ceiling   int64
	pending   []rmaPendingGet
	pWaveEnd  []int // wave cut indices into pending
	pWave     int   // waves issued so far
	waveStart int   // index into gets where the active wave begins
	waveBytes int64
	gauge     liveGauge
	reported  bool
}

// rmaPendingGet is one deferred, possibly segmented Get on the wave
// schedule.
type rmaPendingGet struct {
	item   int
	src    int
	off, n int64
	lo, hi int64
}

type rmaMeta struct {
	item    int
	lo, hi  int64
	key     chunkKey
	posted  float64 // Get issue time, for the ladder's RTT samples
	handled bool    // installed and acked
}

func newRMATransfer(v *view, items []Item) *rmaTransfer {
	requireItems(items, "rma")
	return &rmaTransfer{v: v, items: items, prepared: map[int]bool{}}
}

// setLadderHooks wires the transfer into a resilient pass. The pass's
// Prepare ledger replaces the local one so a later selective recovery round
// knows which items round 0 already Prepared.
func (t *rmaTransfer) setLadderHooks(h *ladderHooks) {
	t.hooks = h
	if h != nil && h.prepared != nil {
		t.prepared = h.prepared
	}
}

// setup exposes source blocks and issues the target-side Gets.
func (t *rmaTransfer) setup(c *mpi.Ctx) {
	if t.phase != 0 {
		return
	}
	copyRate := c.World().Options().CopyRate

	// Extract exposures before Prepare replaces blocks (Merge ranks are
	// both sides).
	exposures := make([]mpi.Payload, len(t.items))
	if t.v.isSource() {
		for i, it := range t.items {
			d := distFor(it, t.v.ns)
			lo, hi := d.Lo(t.v.srcRank), d.Hi(t.v.srcRank)
			exposures[i] = it.Extract(lo, hi)
			// Account the local share of a Merge rank now, as P2P/COL do.
			// Delivered by construction, so the ladder acks it at setup time.
			for _, ch := range sendChunksFor(it, t.v.ns, t.v.nt, t.v.srcRank) {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					if copyRate > 0 {
						c.Compute(float64(it.WireBytes(ch.Lo, ch.Hi)) / copyRate)
					}
					t.hooks.ack(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo, hi: ch.Hi})
				}
			}
		}
	}

	// Collective window creation per item (everyone participates; pure
	// targets expose nothing).
	t.wins = make([]*mpi.Win, len(t.items))
	for i := range t.items {
		t.wins[i] = c.WinCreate(t.v.comm, exposures[i])
	}

	// Targets prepare new blocks and pull their chunks. On the wave
	// schedule the pulls are staged (segmented within the ceiling) and only
	// the first wave is issued here; each wave installs before the next is
	// pulled, so the target's live Get payloads stay within the ceiling.
	if t.v.isTarget() {
		var ceil int64
		if t.waved() {
			ceil = t.ceiling
		}
		for i, it := range t.items {
			if !t.prepared[i] {
				lo, hi := targetRange(it, t.v.nt, t.v.tgtRank)
				it.Prepare(lo, hi)
				t.prepared[i] = true
			}
			srcDist := distFor(it, t.v.ns)
			for _, ch := range recvChunksFor(it, t.v.ns, t.v.nt, t.v.tgtRank) {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					continue
				}
				sLo := srcDist.Lo(ch.Src)
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, ceil) {
					off := it.WireBytes(sLo, sp.lo)
					n := it.WireBytes(sp.lo, sp.hi)
					if ceil > 0 {
						t.pending = append(t.pending, rmaPendingGet{
							item: i, src: ch.Src, off: off, n: n, lo: sp.lo, hi: sp.hi,
						})
						continue
					}
					key := chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: sp.lo, hi: sp.hi}
					t.hooks.markSent(key)
					t.gets = append(t.gets, c.Get(t.wins[i], ch.Src, off, off+n))
					t.meta = append(t.meta, rmaMeta{
						item: i, lo: sp.lo, hi: sp.hi, key: key, posted: c.Now(),
					})
				}
			}
		}
		if t.waved() {
			sizes := make([]int64, len(t.pending))
			for i, p := range t.pending {
				sizes[i] = p.n
			}
			t.pWaveEnd = waveCuts(sizes, t.ceiling)
			t.issueGetWave(c)
		}
	}
	t.phase = 1
}

// waved reports whether this pass runs the memory-ceiling wave schedule.
func (t *rmaTransfer) waved() bool { return t.ceiling > 0 }

// livePeak exposes the high-water footprint for the resilient pass's
// end-of-pass report (an aborted attempt never reaches reportPeak).
func (t *rmaTransfer) livePeak() int64 { return t.gauge.peak }

// issueGetWave pulls the next pending wave, reporting whether one was
// issued.
func (t *rmaTransfer) issueGetWave(c *mpi.Ctx) bool {
	if t.pWave >= len(t.pWaveEnd) {
		return false
	}
	start := 0
	if t.pWave > 0 {
		start = t.pWaveEnd[t.pWave-1]
	}
	t.waveStart = len(t.gets)
	t.waveBytes = 0
	announceWave(c, t.pWave+1)
	for _, p := range t.pending[start:t.pWaveEnd[t.pWave]] {
		key := chunkKey{item: p.item, src: p.src, dst: t.v.tgtRank, lo: p.lo, hi: p.hi}
		t.hooks.markSent(key)
		t.gets = append(t.gets, c.Get(t.wins[p.item], p.src, p.off, p.off+p.n))
		t.meta = append(t.meta, rmaMeta{
			item: p.item, lo: p.lo, hi: p.hi, key: key, posted: c.Now(),
		})
		t.waveBytes += p.n
	}
	t.gauge.add(t.waveBytes)
	t.pWave++
	return true
}

// waveDone reports whether every Get of the active wave completed.
func (t *rmaTransfer) waveDone() bool {
	for _, g := range t.gets[t.waveStart:] {
		if !g.Done() {
			return false
		}
	}
	return true
}

// installWave stores the active wave's fetched chunks, releasing their
// live bytes.
func (t *rmaTransfer) installWave(c *mpi.Ctx) {
	for i := t.waveStart; i < len(t.gets); i++ {
		t.installOne(c, i)
	}
	t.gauge.sub(t.waveBytes)
	t.waveBytes = 0
}

// reportPeak publishes the pass's high-water footprint once, when a wave
// schedule completes.
func (t *rmaTransfer) reportPeak(c *mpi.Ctx) {
	if t.reported || !t.waved() {
		return
	}
	t.reported = true
	reportPeakLive(c, t.gauge.peak)
}

// getsDone reports whether every issued Get completed.
func (t *rmaTransfer) getsDone() bool {
	for _, g := range t.gets {
		if !g.Done() {
			return false
		}
	}
	return true
}

// installOne stores one fetched chunk, feeds the ladder an RTT sample, and
// acks it.
func (t *rmaTransfer) installOne(c *mpi.Ctx, i int) {
	m := &t.meta[i]
	if m.handled {
		return
	}
	m.handled = true
	g := t.gets[i]
	it := t.items[m.item]
	it.Install(m.lo, m.hi, g.Payload())
	if copyRate := c.World().Options().CopyRate; copyRate > 0 {
		c.Compute(float64(g.Payload().Size) / copyRate)
	}
	t.hooks.sample(c.Now() - m.posted)
	t.hooks.ack(m.key)
}

// install stores the fetched chunks once.
func (t *rmaTransfer) install(c *mpi.Ctx) {
	if t.installed {
		return
	}
	t.installed = true
	for i := range t.gets {
		t.installOne(c, i)
	}
	t.phase = 2
}

// progress advances without blocking (beyond the one-time collective
// window creation) and reports completion. Sources are passive: their data
// is snapshotted in the window, so their side completes at setup. Under a
// resilient pass (hooks attached) each completed Get installs as it lands.
func (t *rmaTransfer) progress(c *mpi.Ctx) bool {
	if t.phase == 0 {
		t.setup(c)
	}
	if t.phase >= 2 {
		return true
	}
	if !t.v.isTarget() {
		t.phase = 2
		return true
	}
	if t.waved() {
		for {
			if t.hooks != nil {
				// Resilient wave pass: install the active wave's completions
				// as they land, so an aborted epoch's delivered spans are
				// already acked when the next recovery round plans re-pulls.
				for i := t.waveStart; i < len(t.gets); i++ {
					if !t.gets[i].Done() || t.meta[i].handled {
						continue
					}
					m := t.meta[i]
					n := t.items[m.item].WireBytes(m.lo, m.hi)
					t.gauge.sub(n)
					t.waveBytes -= n
					t.installOne(c, i)
				}
				if !t.waveDone() {
					return false
				}
			} else {
				if !t.waveDone() {
					return false
				}
				t.installWave(c)
			}
			if !t.issueGetWave(c) {
				t.installed = true
				t.phase = 2
				t.reportPeak(c)
				return true
			}
		}
	}
	if t.hooks != nil {
		all := true
		for i, g := range t.gets {
			if !g.Done() {
				all = false
				continue
			}
			t.installOne(c, i)
		}
		if all {
			t.installed = true
			t.phase = 2
		}
		return all
	}
	if t.getsDone() {
		t.install(c)
		return true
	}
	return false
}

// runWaves drives the wave schedule to completion, blocking per wave.
func (t *rmaTransfer) runWaves(c *mpi.Ctx) {
	for {
		c.Waitall(rmaRequests(t.gets[t.waveStart:]))
		t.installWave(c)
		if !t.issueGetWave(c) {
			break
		}
	}
	t.installed = true
	t.reportPeak(c)
}

// reap harvests Gets that completed after the epoch aborted, installing
// and acking their chunks so the next recovery round does not re-pull
// already-landed data.
func (t *rmaTransfer) reap(c *mpi.Ctx) {
	for i, g := range t.gets {
		if g.Done() {
			t.installOne(c, i)
		}
	}
}

// runBlockingAll performs the fenced epoch: expose, pull, fence. On the
// wave schedule the pull phase waits, installs, and re-pulls one wave at a
// time instead of holding every Get's payload live at once.
func (t *rmaTransfer) runBlockingAll(c *mpi.Ctx) {
	t.setup(c)
	if t.v.isTarget() {
		if t.waved() {
			t.runWaves(c)
		} else {
			c.Waitall(rmaRequests(t.gets))
			t.install(c)
		}
	}
	// Closing fence: sources leave only after every pull completed.
	if len(t.wins) > 0 {
		c.Fence(t.wins[len(t.wins)-1])
	}
	t.phase = 2
}

// drain completes the non-blocking variant from wherever progress left it.
func (t *rmaTransfer) drain(c *mpi.Ctx) {
	if t.phase == 0 {
		t.setup(c)
	}
	if t.v.isTarget() && !t.installed {
		if t.waved() {
			t.runWaves(c)
		} else {
			c.Waitall(rmaRequests(t.gets))
			t.install(c)
		}
	}
	t.phase = 2
}

func rmaRequests(gets []*mpi.RMAReq) []mpi.Request {
	out := make([]mpi.Request, len(gets))
	for i, g := range gets {
		out[i] = g
	}
	return out
}

// rmaRecoveryRound is the selective recovery path of the one-sided method
// (rungs 0 and 2); rung 3's full checkpoint restore reuses the generic
// comm-agnostic path.
//
// Rung 0 (nobody newly dead): the attempt's windows still hold every
// source's snapshot — exposure clones at WinCreate — so targets simply
// re-issue the lost Gets against the same windows. No source participates:
// one-sided recovery needs no source CPU, the defining RMA property.
//
// Rung 2 (a participant died): the dead rank can never join another
// exposure epoch, so every survivor collectively creates fresh windows —
// sources whose in-memory block is still pristine re-expose their full
// block, everyone else exposes nothing — and targets pull only
// lost-source chunks from the protect checkpoint instead.
//
// Both sides consult the shared ack map and the pass's agreed rung, stable
// since the previous round's commit barrier, so their plans agree without
// extra messages. Get completions feed the rung-1 RTT estimator, which in
// turn drives the next epoch's adaptive deadline.
//
// Re-pulls are planned per ceiling-derived span (the same segmentSpans the
// attempt used, re-derived here over whatever plan survives) and issued in
// ceiling-bounded waves: each wave installs before the next is pulled, so
// recovery traffic respects the same per-rank memory bound as the attempt.
func (rp *resilientPass) rmaRecoveryRound(c *mpi.Ctx, round int, failedAtPlan map[int]bool) string {
	v := rp.v
	replan := rp.st.rung >= rungReplan
	ceiling := rp.cfg.MemCeiling

	// pristine reports whether source rank src still holds its original
	// block in memory: it must be alive, and must not be a Merge rank that
	// doubles as a target (its Prepare may already have resized the item
	// in place).
	pristine := func(src int) bool {
		if failedAtPlan[v.sourceGID(src)] {
			return false
		}
		if !v.inter && src < v.nt {
			return false
		}
		return true
	}

	var wins []*mpi.Win
	if replan {
		wins = make([]*mpi.Win, len(rp.items))
		for i, it := range rp.items {
			var exp mpi.Payload
			if v.isSource() && pristine(v.srcRank) {
				d := distFor(it, v.ns)
				exp = it.Extract(d.Lo(v.srcRank), d.Hi(v.srcRank))
			}
			wins[i] = c.WinCreate(v.comm, exp)
		}
	} else if rx, ok := rp.x.(*rmaTransfer); ok {
		wins = rx.wins
	}

	type pendingGet struct {
		item   int
		src    int
		off, n int64
		lo, hi int64
		req    *mpi.RMAReq
		key    chunkKey
		posted float64
	}
	var gets []pendingGet
	if v.isTarget() {
		for i, it := range rp.items {
			if !rp.prepared[i] && !rp.hooks.isPrepared(i) {
				lo, hi := targetRange(it, v.nt, v.tgtRank)
				it.Prepare(lo, hi)
				rp.prepared[i] = true
			}
			srcDist := distFor(it, v.ns)
			for _, ch := range recvChunksFor(it, v.ns, v.nt, v.tgtRank) {
				if v.selfChunk(ch.Src, ch.Dst) {
					// Kept in place by Prepare; delivered by construction.
					rp.acks.ack(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo, hi: ch.Hi})
					continue
				}
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, ceiling) {
					key := chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: sp.lo, hi: sp.hi}
					if rp.acks.acked(key) {
						continue // already delivered
					}
					// Rung 0 pulls every span from the snapshot (valid even
					// for non-pristine Merge sources: exposure cloned the
					// original block); rung 2's fresh windows expose only
					// pristine survivors, the rest falls back to the
					// checkpoint.
					fromWin := wins != nil && (!replan || pristine(ch.Src))
					if fromWin {
						off := it.WireBytes(srcDist.Lo(ch.Src), sp.lo)
						n := it.WireBytes(sp.lo, sp.hi)
						rp.acks.noteResend(key, n)
						rp.acks.markSent(key)
						gets = append(gets, pendingGet{
							item: i, src: ch.Src, off: off, n: n,
							lo: sp.lo, hi: sp.hi, key: key,
						})
					} else {
						rp.readSpan(c, i, it, ch.Src, sp.lo, sp.hi)
						rp.acks.ack(key)
					}
				}
			}
		}
	}

	// Wave-paced pulls: each wave's Gets install (and release their
	// payloads) before the next is issued. Without a ceiling everything
	// forms one wave.
	sizes := make([]int64, len(gets))
	for i, g := range gets {
		sizes[i] = g.n
	}
	var cuts []int
	if ceiling > 0 {
		cuts = waveCuts(sizes, ceiling)
	} else if len(gets) > 0 {
		cuts = []int{len(gets)}
	}
	copyRate := c.World().Options().CopyRate
	install := func(g *pendingGet) {
		it := rp.items[g.item]
		want := it.WireBytes(g.lo, g.hi)
		if got := g.req.Payload().Size; got != want {
			panic(fmt.Sprintf("core: one-sided recovery chunk of %q: got %d bytes, want %d",
				it.Name(), got, want))
		}
		it.Install(g.lo, g.hi, g.req.Payload())
		if copyRate > 0 {
			c.Compute(float64(want) / copyRate)
		}
		rp.rtt.Observe(c.Now() - g.posted)
		rp.acks.ack(g.key)
	}
	prevStart, issued, wave := 0, 0, 0
	var waveBytes int64
	seenDone := 0
	done := func() bool {
		n := 0
		for i := 0; i < issued; i++ {
			if gets[i].req.Done() {
				n++
			}
		}
		if n > seenDone {
			// Completions are epoch progress for the adaptive deadline.
			rp.ticks += n - seenDone
			seenDone = n
		}
		for {
			for i := prevStart; i < issued; i++ {
				if !gets[i].req.Done() {
					return false
				}
			}
			for i := prevStart; i < issued; i++ {
				install(&gets[i])
			}
			rp.gauge.sub(waveBytes)
			waveBytes = 0
			prevStart = issued
			if wave >= len(cuts) {
				return true
			}
			end := cuts[wave]
			for i := issued; i < end; i++ {
				g := &gets[i]
				g.posted = c.Now()
				g.req = c.Get(wins[g.item], g.src, g.off, g.off+g.n)
				waveBytes += g.n
			}
			issued = end
			rp.gauge.add(waveBytes)
			wave++
		}
	}
	if reason := rp.resilientDrive(c, failedAtPlan, done,
		fmt.Sprintf("one-sided recovery round %d", round)); reason != "" {
		return reason
	}
	return ""
}
