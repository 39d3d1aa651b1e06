package core

import (
	"fmt"

	"repro/internal/mpi"
)

// p2pTransfer is the state of one Algorithm 1 redistribution pass over a
// set of items. It supports both blocking completion (run) and incremental
// progress (progress), which is what Algorithm 3's Test_Redistribution
// does.
type p2pTransfer struct {
	v      *view
	items  []Item
	tagIdx []int // store-wide index per item, fixing the tag pair

	sendReqs []mpi.Request

	// Receiver state (Algorithm 1's second half).
	recvReqs []mpi.Request
	recvMeta []p2pRecvMeta
	numRcv   int // value messages still pending
	prepared map[int]bool

	// hooks is the recovery ladder's bookkeeping (nil outside resilient
	// passes): chunk retention/acknowledgement, RTT samples, progress ticks.
	hooks *ladderHooks

	// ceiling is Config.MemCeiling. When positive, the source issues its
	// staged sends in waves whose value bytes stay within the ceiling
	// instead of all at once; see waves.go. Resilient passes run the same
	// schedule — the ladder's ack ledger is keyed on the segmented spans,
	// so both modes agree on ledger entries without metadata exchange.
	ceiling     int64
	staged      []stagedSend
	waveEnd     []int // wave cut indices into staged (pairs stay together)
	wave        int   // waves issued so far
	waveBytes   int64 // value bytes of the active wave
	waveReqs    []mpi.Request
	lazyExtract bool // pure source on the wave schedule: extract at issue
	gauge       liveGauge
	reported    bool

	started bool
}

// stagedSend is one deferred source send. On the one-shot schedule (and on
// wave-scheduled ranks that are also targets) extraction happens at staging
// time, before Prepare may replace a Merge rank's block; on wave-scheduled
// pure sources nothing replaces the block, so extraction is deferred to
// wave issue and the staged payload is a sized placeholder — the staging
// footprint itself stays within the ceiling, not just the wire traffic.
type stagedSend struct {
	dst, tag int
	pl       mpi.Payload
	item     int   // index into items, for deferred extraction
	lo, hi   int64 // element range, for deferred extraction
	size     int64 // size-message value, encoded at issue time
	isSize   bool
}

type p2pRecvMeta struct {
	item   int // index into items
	src    int
	lo, hi int64
	isSize bool
	vtag   int     // tag of the values message this size message announces
	posted float64 // post time, for the ladder's RTT samples
}

// setLadderHooks wires the transfer into a resilient pass. The pass's
// Prepare ledger replaces the local one so a later selective recovery round
// knows which items round 0 already Prepared.
func (t *p2pTransfer) setLadderHooks(h *ladderHooks) {
	t.hooks = h
	if h != nil && h.prepared != nil {
		t.prepared = h.prepared
	}
}

// newP2PTransfer plans an Algorithm 1 pass on view v; tagIdx gives each
// item's store-wide index so both sides derive the same tag pairs.
func newP2PTransfer(v *view, items []Item, tagIdx []int) *p2pTransfer {
	requireItems(items, "p2p")
	if len(tagIdx) != len(items) {
		panic("core: tagIdx/items length mismatch")
	}
	return &p2pTransfer{v: v, items: items, tagIdx: tagIdx, prepared: map[int]bool{}}
}

// waved reports whether this pass runs the memory-ceiling wave schedule.
func (t *p2pTransfer) waved() bool { return t.ceiling > 0 }

// start stages the source sends and posts the target size receives. With
// the wave schedule off, every staged send is issued here (the paper's
// one-shot Algorithm 1); with it on, only the first wave goes out and
// advanceWaves releases the rest as earlier waves complete.
func (t *p2pTransfer) start(c *mpi.Ctx) {
	if t.started {
		return
	}
	t.started = true
	copyRate := c.World().Options().CopyRate
	var ceil int64
	if t.waved() {
		ceil = t.ceiling
		// A pure source's block is never replaced during the pass, so its
		// extractions can wait for their wave; a rank that is also a target
		// must still extract before Prepare.
		t.lazyExtract = !t.v.isTarget()
	}

	// Stage the source extractions first: a Merge rank that is both source
	// and target must read its old block before Prepare replaces it. The
	// extracted slices stay valid because Prepare allocates fresh storage.
	var scratch [8]byte // size-message encode buffer; Isend clones synchronously
	if t.v.isSource() {
		for i, it := range t.items {
			sizeTag, valueTag := itemTags(t.tagIdx[i])
			occ := map[int]int{}
			for _, ch := range sendChunksFor(it, t.v.ns, t.v.nt, t.v.srcRank) {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					// memcpy path: Prepare preserves the local overlap; only
					// the copy cost is charged here. Delivered by construction,
					// so the ladder acks it at stage time.
					if copyRate > 0 {
						c.Compute(float64(it.WireBytes(ch.Lo, ch.Hi)) / copyRate)
					}
					t.hooks.ack(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo, hi: ch.Hi})
					continue
				}
				// One-shot: segments of one chunk travel the item's shared tag
				// pair in ascending lo order; matching is FIFO per (peer, tag),
				// so the target's identically-ordered receives pair up without
				// extra metadata. Waved: each segment owns a per-sequence tag
				// pair (waveTags), so a dropped segment cannot shift later
				// segments of the chunk into the wrong posted receive.
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, ceil) {
					sTag, vTag := sizeTag, valueTag
					if t.waved() {
						sTag, vTag = waveTags(t.tagIdx[i], occ[ch.Dst])
						occ[ch.Dst]++
					}
					var pl mpi.Payload
					if t.lazyExtract {
						pl = mpi.Virtual(it.WireBytes(sp.lo, sp.hi))
					} else {
						pl = it.Extract(sp.lo, sp.hi)
						t.hooks.retain(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: sp.lo, hi: sp.hi}, pl)
					}
					t.staged = append(t.staged,
						stagedSend{dst: ch.Dst, tag: sTag, size: pl.Size, isSize: true},
						stagedSend{dst: ch.Dst, tag: vTag, pl: pl, item: i, lo: sp.lo, hi: sp.hi})
				}
			}
		}
	}

	// Targets prepare their new blocks and post one size receive per
	// incoming chunk segment (tag 77 family), before sends are issued so
	// rendezvous values can stream immediately. The segmentation is a pure
	// function of (item, range, ceiling), so it reproduces the source's
	// boundaries exactly.
	if t.v.isTarget() {
		for i, it := range t.items {
			if !t.prepared[i] {
				lo, hi := targetRange(it, t.v.nt, t.v.tgtRank)
				it.Prepare(lo, hi)
				t.prepared[i] = true
			}
			sizeTag, valueTag := itemTags(t.tagIdx[i])
			occ := map[int]int{}
			for _, ch := range recvChunksFor(it, t.v.ns, t.v.nt, t.v.tgtRank) {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					continue // local copy handled on the send side
				}
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, ceil) {
					sTag, vTag := sizeTag, valueTag
					if t.waved() {
						sTag, vTag = waveTags(t.tagIdx[i], occ[ch.Src])
						occ[ch.Src]++
					}
					t.recvReqs = append(t.recvReqs, t.v.recvFrom(c, ch.Src, sTag))
					t.recvMeta = append(t.recvMeta, p2pRecvMeta{item: i, src: ch.Src, lo: sp.lo, hi: sp.hi, isSize: true, vtag: vTag, posted: c.Now()})
					t.numRcv++
				}
			}
		}
	}

	if t.waved() {
		// Wave cuts count value bytes and keep each (size, value) pair —
		// adjacent staged entries — in one wave; a size message is 8 bytes
		// of metadata riding alongside its values.
		pairSizes := make([]int64, len(t.staged)/2)
		for i := range pairSizes {
			pairSizes[i] = t.staged[2*i+1].pl.Size
		}
		for _, cut := range waveCuts(pairSizes, t.ceiling) {
			t.waveEnd = append(t.waveEnd, 2*cut)
		}
		t.advanceWaves(c)
		return
	}

	// Issue the staged sends (a pair of MPI_Isend per chunk, Algorithm 1).
	// Size messages encode into one reusable scratch buffer: Isend clones
	// the payload before returning, so the next iteration may overwrite it.
	for _, s := range t.staged {
		pl := s.pl
		if s.isSize {
			pl = mpi.Bytes(mpi.AppendInt64s(scratch[:0], s.size))
		} else {
			t.hooks.markSent(chunkKey{item: s.item, src: t.v.srcRank, dst: s.dst, lo: s.lo, hi: s.hi})
		}
		t.sendReqs = append(t.sendReqs, t.v.sendTo(c, s.dst, s.tag, pl))
	}
	t.staged = nil
}

// advanceWaves issues further send waves as earlier ones complete. It
// never blocks: the blocking loop's wait set includes the active wave so
// a source parked on receives still observes its own send completions.
func (t *p2pTransfer) advanceWaves(c *mpi.Ctx) {
	if !t.waved() {
		return
	}
	var scratch [8]byte
	for c.Testall(t.waveReqs) {
		t.gauge.sub(t.waveBytes)
		t.waveBytes = 0
		t.waveReqs = t.waveReqs[:0]
		if t.wave >= len(t.waveEnd) {
			return
		}
		start := 0
		if t.wave > 0 {
			start = t.waveEnd[t.wave-1]
		}
		announceWave(c, t.wave+1)
		for j, s := range t.staged[start:t.waveEnd[t.wave]] {
			pl := s.pl
			if s.isSize {
				pl = mpi.Bytes(mpi.AppendInt64s(scratch[:0], s.size))
			} else {
				key := chunkKey{item: s.item, src: t.v.srcRank, dst: s.dst, lo: s.lo, hi: s.hi}
				if t.lazyExtract {
					pl = t.items[s.item].Extract(s.lo, s.hi)
					// The deferred extraction doubles as the ladder's rung-0
					// reservoir, subject to the per-source retention budget.
					t.hooks.retain(key, pl)
				}
				t.hooks.markSent(key)
				t.waveBytes += pl.Size
				t.staged[start+j].pl = mpi.Payload{} // wave issued: drop the staging reference
			}
			req := t.v.sendTo(c, s.dst, s.tag, pl)
			t.sendReqs = append(t.sendReqs, req)
			t.waveReqs = append(t.waveReqs, req)
		}
		t.gauge.add(t.waveBytes)
		t.wave++
	}
}

// sendsIssued reports whether every wave has been released (vacuously true
// on the one-shot schedule, where start issued everything).
func (t *p2pTransfer) sendsIssued() bool { return t.wave >= len(t.waveEnd) }

// livePeak exposes the high-water footprint for the resilient pass's
// end-of-pass report (an aborted attempt never reaches reportPeak).
func (t *p2pTransfer) livePeak() int64 { return t.gauge.peak }

// reportPeak publishes the pass's high-water footprint once, when a wave
// schedule completes.
func (t *p2pTransfer) reportPeak(c *mpi.Ctx) {
	if t.reported || !t.waved() {
		return
	}
	t.reported = true
	reportPeakLive(c, t.gauge.peak)
}

// progress advances the receiver state machine without blocking and reports
// whether the whole pass (sends and receives) has completed.
func (t *p2pTransfer) progress(c *mpi.Ctx) bool {
	if !t.started {
		t.start(c)
	}
	t.advanceWaves(c)
	// Index loop, not range: handling a size message appends the matching
	// value receive, and that receive may already be complete (its envelope
	// arrived eagerly before the post — the completion broadcast fires while
	// this rank is running and is lost). It must be handled in this same
	// pass: if it is the last outstanding receive, no future event will wake
	// the rank again and it would sleep to its epoch deadline.
	for idx := 0; idx < len(t.recvReqs); idx++ {
		rr, ok := t.recvReqs[idx].(*mpi.RecvReq)
		if !ok || !rr.Done() || rr.Handled() {
			continue
		}
		t.handleRecv(c, idx, rr)
	}
	done := t.numRcv == 0 && t.sendsIssued() && c.Testall(t.sendReqs)
	if done {
		t.reportPeak(c)
	}
	return done
}

// runBlockingAll drives the pass to completion, blocking per Algorithm 1:
// a Waitany-driven receive loop, then MPI_Waitall on the sends. The wave
// schedule adds the active wave's sends to the wait set, so a rank blocked
// on receives still releases its next wave the moment the current one
// completes — without that, two ranks could park on each other's
// still-unissued waves.
func (t *p2pTransfer) runBlockingAll(c *mpi.Ctx) {
	t.start(c)
	if t.waved() {
		t.runWaves(c)
		return
	}
	for t.numRcv > 0 {
		idx := c.Waitany(t.recvReqs)
		if idx < 0 {
			panic("core: p2p receive loop exhausted requests with messages pending")
		}
		rr := t.recvReqs[idx].(*mpi.RecvReq)
		if rr.Handled() {
			continue // already processed by an earlier progress call
		}
		t.handleRecv(c, idx, rr)
	}
	c.Waitall(t.sendReqs)
}

// drain completes the pass from wherever progress left it: the blocking
// loop skips receives progress already handled.
func (t *p2pTransfer) drain(c *mpi.Ctx) { t.runBlockingAll(c) }

// runWaves is the blocking loop of the wave schedule.
func (t *p2pTransfer) runWaves(c *mpi.Ctx) {
	for {
		t.advanceWaves(c)
		if t.numRcv == 0 && t.sendsIssued() {
			break
		}
		nr := len(t.recvReqs)
		reqs := make([]mpi.Request, 0, nr+len(t.waveReqs))
		reqs = append(reqs, t.recvReqs...)
		reqs = append(reqs, t.waveReqs...)
		idx := c.Waitany(reqs)
		if idx < 0 {
			panic("core: p2p receive loop exhausted requests with messages pending")
		}
		if idx < nr {
			rr := t.recvReqs[idx].(*mpi.RecvReq)
			if rr.Handled() {
				continue
			}
			t.handleRecv(c, idx, rr)
		}
		// idx >= nr: a wave send completed; loop back to advance the wave.
	}
	c.Waitall(t.sendReqs)
	t.reportPeak(c)
}

// handleRecv processes one completed receive: a size message posts the
// matching values receive; a values message installs the chunk.
func (t *p2pTransfer) handleRecv(c *mpi.Ctx, idx int, rr *mpi.RecvReq) {
	meta := t.recvMeta[idx]
	rr.MarkHandled()
	it := t.items[meta.item]
	if meta.isSize {
		size := rr.Payload().Int64At(0)
		if want := it.WireBytes(meta.lo, meta.hi); size != want {
			panic(fmt.Sprintf("core: %q size message %d from source %d, plan says %d",
				it.Name(), size, meta.src, want))
		}
		t.hooks.tick()
		if t.waved() {
			t.gauge.add(size) // incoming values are live from here to install
		}
		t.recvReqs = append(t.recvReqs, t.v.recvFrom(c, meta.src, meta.vtag))
		t.recvMeta = append(t.recvMeta, p2pRecvMeta{item: meta.item, src: meta.src, lo: meta.lo, hi: meta.hi, posted: c.Now()})
		return
	}
	it.Install(meta.lo, meta.hi, rr.Payload())
	if t.waved() {
		t.gauge.sub(rr.Payload().Size)
	}
	t.numRcv--
	t.hooks.sample(c.Now() - meta.posted)
	t.hooks.ack(chunkKey{item: meta.item, src: meta.src, dst: t.v.tgtRank, lo: meta.lo, hi: meta.hi})
}

// reap harvests value receives that completed after the epoch aborted, so
// their chunks are acked before the next recovery round plans resends. Size
// messages are skipped: handling one would post a fresh value receive into
// an epoch that is already over.
func (t *p2pTransfer) reap(c *mpi.Ctx) {
	for idx := range t.recvReqs {
		rr, ok := t.recvReqs[idx].(*mpi.RecvReq)
		if !ok || t.recvMeta[idx].isSize || !rr.Done() || rr.Handled() {
			continue
		}
		t.handleRecv(c, idx, rr)
	}
}
