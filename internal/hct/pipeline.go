package hct

// This file is the ingest pipeline: the one stamping engine of the package.
// With one lane and the inline planner it is the single-writer Timestamper
// (engine.go); with N lanes it stamps in parallel, producing bit-identical
// timestamps over the same lock-free read plane.
//
// # Why delivery can be sharded at all
//
// A Fidge/Mattern clock is a property of the partial order, not of the
// delivery order: FM(e) is the join of e's predecessors' clocks plus e's own
// increment, so any schedule that respects the happened-before edges
// computes the same vectors. The only delivery-order-dependent state in the
// engine is the cluster bookkeeping — which cluster an event is stamped
// against, and whether a cluster receive merges or is noted — because merge
// decisions consult the live partition. The pipeline therefore splits
// delivery into
//
//   - a sequential planner (plan stage, under planMu) that validates each
//     event against the delivery-order error contract, and makes every
//     cluster decision in delivery order, pinning the
//     immutable *cluster.Info epoch each event must be stamped with; and
//   - N parallel lanes (stamp stage), each owning a disjoint set of
//     processes (and so a disjoint set of columns), that compute the FM
//     vectors, project or retain them, and publish cells and cluster-receive
//     notes — contention-free except at cross-shard communication.
//
// The shard map follows the paper's clustering: when an initial partition is
// configured, whole clusters land on one shard (intra-cluster traffic, the
// common case by construction, never crosses lanes); otherwise processes are
// split into contiguous blocks.
//
// # Pipelined planner
//
// The plan stage itself can run off the submitter's goroutine: with the
// pipelined planner (planner.go), DispatchAsync copies the batch onto a
// bounded plan queue and returns, and a dedicated planner goroutine runs the
// two planning passes and flushes to the lanes. The submitter — the server's
// decode/WAL path — never touches planMu, so journaling batch N+1 overlaps
// planning batch N, which overlaps stamping batch N-1. Synchronous Dispatch
// calls route through the same queue and wait for the planner's verdict, so
// the error contract is unchanged in either mode.
//
// Planning is split into two passes per batch (planBatch). Pass 1
// (validateBatch) runs the delivery-order validation state machine —
// next/pendSend/syncHold — which reads no cluster state at all, and collects
// the finalized events. Pass 2 (clusterPlanBatch) pins each event's cluster
// epoch through the package's one cluster-receive rule (clustering.go).
// Merge decisions are inherently sequential: each one can repartition the
// processes the next decision consults.
//
// # Cross-shard rendezvous
//
// A receive needs the matching send's finalized clock. Same-lane sends park
// it in a lane-local slot the planner assigned (sendSlots); cross-lane sends
// publish it to a striped rendezvous table keyed by send ID, where the
// receiver's lane blocks until it appears. Delivery order guarantees the
// send was dispatched before the receive, so the wait always terminates; and
// because a lane publishes an event's column cell and cluster-receive note
// BEFORE forwarding its clock (put-after-publish), a clock obtained from the
// rendezvous proves, by induction over lanes, that every event it counts has
// published cell and note — exactly the visibility invariant the routed
// precedence path needs (store.go).
//
// Rendezvous traffic is batched per chunk. Outbound: a lane buffers its
// cross-lane send clocks per stripe and flushes each stripe's batch under
// one lock acquisition (one wakeup) instead of one per event. Deferring a
// put is safe for visibility — the put-after-publish invariant only requires
// the cell and note to precede the put, and delaying the put preserves that
// — but it is only deadlock-free because a lane flushes its buffered puts
// before EVERY operation that can block (a rendezvous take, the sync
// exchange) and at the end of each chunk: a buffered put may be exactly the
// clock another lane is blocked on, so no lane may sleep holding one.
// Inbound: when a lane claims a chunk it prescans it and claims every
// already-published clock its cross-lane receives will need, grouped per
// stripe, under one lock acquisition each (prefetchTakes). Claiming early
// cannot starve anyone — each send has exactly one receive, and the shard
// map routes it to this lane — and misses simply fall back to the blocking
// take.
//
// Deadlock-freedom: suppose lane A blocks at item iA (receive of send S in
// lane B) and B blocks at iB (receive of send S' in A), with S queued after
// iB and S' after iA. Dispatch order gives S < iA and S' < iB (sends precede
// their receives), so S' < iB < S < iA < S' — a contradiction. Lanes process
// their queues in dispatch order, so the blocked-on send is always ahead of
// (or at) the other lane's cursor, never behind another blocked item.
//
// Synchronous pairs are a joint event: both halves carry the identical join
// of the two sides' base clocks. A same-lane pair completes locally (the
// planner dispatches both halves adjacently). A cross-lane pair runs a
// two-round exchange: (1) each side publishes its own base clock keyed by
// its own ID, then takes the partner's — both puts precede both takes, so
// the exchange cannot deadlock — and stamps its half with the join; (2) each
// side marks its half published and waits for the partner's mark before
// processing further items. Round 2 exists because the joint clock counts
// the PARTNER's own event: without it, a later event of this lane could
// forward a clock counting an event whose cell and note are not yet
// published, breaking the put-after-publish invariant.
//
// # Barrier
//
// Dispatch is asynchronous; Barrier blocks until every item dispatched
// before the call has been stamped and published. The planner counts issued
// items per shard; lanes count completed items per drained chunk. A held
// first sync half is not "issued" (the single-writer path, too, returns from
// DeliverBatch with the pair unstamped until the partner arrives).
//
// With the pipelined planner the issued counts lag the accepted batches, so
// Barrier must count planned items, not just issued ones: it pushes a marker
// through the plan queue (FIFO with the batches, exempt from the depth
// bound), the planner answers it with an issued-count snapshot taken after
// planning everything that preceded it, and Barrier then waits for the lanes
// to cover that snapshot. When the queue is empty and the planner idle,
// Barrier skips the round-trip and snapshots directly — the common case on
// query paths, which barrier per query frame.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/vclock"
)

// ErrPipelineClosed is returned by Dispatch after Close.
var ErrPipelineClosed = errors.New("hct: pipeline closed")

// WaitObserver receives the duration of each blocking cross-shard
// rendezvous wait. The telemetry plane installs a latency histogram here.
type WaitObserver interface {
	Observe(d time.Duration)
}

// BatchTracer receives stage spans for one traced run: the planner records
// plan-mutex wait and planning time, lanes record their stamping intervals
// with cross-shard rendezvous waits as child spans. The interface decouples
// the pipeline from the telemetry package; *obs.Trace implements it. A nil
// BatchTracer (the common case — only sampled batches carry one) disables
// all span work at the cost of one pointer comparison per stage.
//
// Begin opens a span (lane -1 = not lane-bound, parent -1 = child of the
// trace root) and returns its index; End closes it; Span records an
// already-measured interval. Implementations must be safe for concurrent
// use: lanes run in parallel and record spans after Dispatch returns.
type BatchTracer interface {
	Begin(name string, lane, parent int) int
	End(idx int)
	Span(name string, lane, parent int, start time.Time, d time.Duration) int
}

// PipelineOptions tunes the sharding.
type PipelineOptions struct {
	// Shards is the number of ingest lanes. Zero or negative means
	// GOMAXPROCS. The value is clamped to the number of processes.
	Shards int

	// PlanQueue selects where planning runs. Zero (the default) pipelines
	// the planner onto its own goroutine behind a DefaultPlanQueue-deep
	// batch queue whenever Shards > 1, and plans inline on the dispatching
	// goroutine otherwise. A positive value forces the pipelined planner at
	// that queue depth even with one shard (the planner goroutine then also
	// stamps). A negative value forces inline planning at any shard count.
	PlanQueue int
}

// item is one planned unit of lane work: the event plus the cluster epoch
// the planner pinned for it. A nil cluster marks a noted cluster receive
// (the lane retains the full vector and publishes a note). For a send whose
// receive runs on the same lane, and for that receive, slot names the lane's
// send-clock slot the two meet at (-1 otherwise; see sendSlots). bt is the
// traced run's span sink, nil for the (overwhelmingly common) unsampled runs.
type item struct {
	ev   model.Event
	slot int32
	cl   *cluster.Info
	bt   BatchTracer
}

// pendingSend is the planner's record of a delivered send whose receive has
// not been delivered yet.
type pendingSend struct {
	recv model.EventID // the receive it targets
	slot int32         // same-lane send-clock slot, or -1
}

// sendSlots hands out one lane's send-clock slots. A send whose receive runs
// on the same lane parks its clock in the lane's slot table instead of a map
// keyed by event ID; the planner allocates the slot when it plans the send
// and frees it when it plans the receive. Freeing before the lane has read
// the slot is safe: a lane processes its items in planner order, so any
// later send that reuses the slot is stamped after the receive consumed it.
type sendSlots struct {
	free []int32
	next int32
}

func (ss *sendSlots) alloc() int32 {
	if n := len(ss.free); n > 0 {
		s := ss.free[n-1]
		ss.free = ss.free[:n-1]
		return s
	}
	ss.next++
	return ss.next - 1
}

// Pipeline is the sharded ingest engine. It embeds the same lock-free read
// plane as Timestamper, so the entire query surface (Precedes, Concurrent,
// Timestamp, CaptureWatermark, ...) is shared and concurrent with stamping.
//
// Dispatch and the accounting methods are safe for concurrent use; queries
// are lock-free as on Timestamper.
type Pipeline struct {
	plane

	nshards int
	smap    []int32 // process -> shard

	// planMu guards the planner state below, including the embedded
	// clustering (partition, decider and accounting tallies).
	planMu sync.Mutex
	clustering
	next     []model.EventIndex            // per process, next expected index
	pendSend map[model.EventID]pendingSend // in-flight sends
	slots    []sendSlots                   // per shard, same-lane send-clock slots
	syncHold *model.Event                  // first half of an in-flight sync pair
	issued   []uint64                      // items dispatched per shard
	curBufs  [][]item                      // per-shard staging buffers, capacity retained across batches
	planBuf  []item                        // validateBatch's finalized events, reused per batch
	closed   bool

	// Tracing state for the Dispatch in progress (guarded by planMu).
	// curBT tags staged items; stampStart/stampDur accumulate inline
	// single-shard stamping time, folded into one stamp span by
	// DispatchTraced.
	curBT      BatchTracer
	stampStart time.Time
	stampDur   time.Duration

	lanes []*lane
	rv    rendezvous
	wg    sync.WaitGroup

	// doneMu guards done, the per-shard completed-item counts.
	doneMu   sync.Mutex
	doneCond *sync.Cond
	done     []uint64

	snapPool sync.Pool // *[]uint64 barrier snapshots

	wo atomic.Pointer[WaitObserver]

	// Pipelined-planner state (planner.go). pq is the bounded plan queue;
	// async is true when a planner goroutine owns the plan stage.
	async     bool
	pq        planQueue
	plannerWG sync.WaitGroup
	busy      atomic.Int64 // cumulative planner busy nanoseconds
	start     time.Time

	batchPool sync.Pool // *[]model.Event: owned batch copies for DispatchAsync
	replyPool sync.Pool // chan error (cap 1) for queued synchronous dispatch
	bwPool    sync.Pool // *barrierWait markers

	pqo atomic.Pointer[SizeObserver]
}

// NewPipeline returns a sharded pipeline over numProcs processes. With one
// shard (or one process) it degenerates to the single-writer path: Dispatch
// stamps inline and no goroutines are started. Close releases the lanes.
func NewPipeline(numProcs int, cfg Config, opt PipelineOptions) (*Pipeline, error) {
	clusterAligned := cfg.Partition != nil
	cl, err := newClustering(numProcs, cfg)
	if err != nil {
		return nil, err
	}
	nshards := opt.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	if nshards > numProcs {
		nshards = numProcs
	}
	p := &Pipeline{
		plane:      newPlane(numProcs),
		clustering: cl,
		nshards:    nshards,
		next:       make([]model.EventIndex, numProcs),
		pendSend:   make(map[model.EventID]pendingSend, numProcs),
		slots:      make([]sendSlots, nshards),
		issued:     make([]uint64, nshards),
		done:       make([]uint64, nshards),
		start:      time.Now(),
	}
	for i := range p.next {
		p.next[i] = 1
	}
	p.doneCond = sync.NewCond(&p.doneMu)
	p.smap = buildShardMap(numProcs, nshards, cl.part, clusterAligned)
	p.lanes = make([]*lane, nshards)
	for i := range p.lanes {
		ln := &lane{
			pl:       p,
			id:       int32(i),
			frontier: make([]vclock.Clock, numProcs),
		}
		ln.cond = sync.NewCond(&ln.mu)
		p.lanes[i] = ln
	}
	if nshards > 1 {
		// Cross-lane machinery: a single lane never meets another.
		p.rv.init()
		p.curBufs = make([][]item, nshards)
		for i := range p.curBufs {
			p.curBufs[i] = make([]item, 0, 256)
		}
		for i, ln := range p.lanes {
			ln.prefetched = make(map[model.EventID]vclock.Clock)
			p.wg.Add(1)
			go p.lanes[i].run()
		}
	}
	depth := opt.PlanQueue
	if depth == 0 && nshards > 1 {
		depth = DefaultPlanQueue
	}
	if depth > 0 {
		p.async = true
		p.pq.init(depth)
		p.plannerWG.Add(1)
		go p.planner()
	}
	return p, nil
}

// buildShardMap assigns each process a shard. With a configured initial
// partition, whole clusters are packed greedily (largest first) onto the
// least-loaded shard, so intra-cluster messages stay on one lane; otherwise
// processes split into contiguous blocks, which keeps ring- and
// stencil-shaped neighbour traffic local.
func buildShardMap(numProcs, nshards int, part *cluster.Partition, clusterAligned bool) []int32 {
	smap := make([]int32, numProcs)
	if !clusterAligned || nshards == 1 {
		for p := 0; p < numProcs; p++ {
			smap[p] = int32(p * nshards / numProcs)
		}
		return smap
	}
	groups := part.Live() // ascending ID: deterministic
	// Stable largest-first order.
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i
		for j > 0 && groups[j-1].Size() < g.Size() {
			groups[j] = groups[j-1]
			j--
		}
		groups[j] = g
	}
	loads := make([]int, nshards)
	for _, g := range groups {
		best := 0
		for s := 1; s < nshards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		for _, m := range g.Members {
			smap[m] = int32(best)
		}
		loads[best] += g.Size()
	}
	return smap
}

// Close stops the planner (draining its queue) and then the lanes (draining
// theirs). Further Dispatch calls fail with ErrPipelineClosed; the query
// surface stays usable.
func (p *Pipeline) Close() {
	p.planMu.Lock()
	if p.closed {
		p.planMu.Unlock()
		return
	}
	p.closed = true
	p.planMu.Unlock()
	if p.async {
		// The planner must fully drain before the lanes are told to stop:
		// a lane exits once its queue is empty, so items flushed after that
		// would never be stamped.
		p.pq.mu.Lock()
		p.pq.stop = true
		p.pq.ready.Signal()
		p.pq.avail.Broadcast()
		p.pq.mu.Unlock()
		p.plannerWG.Wait()
	}
	if p.nshards > 1 {
		for _, ln := range p.lanes {
			ln.mu.Lock()
			ln.stop = true
			ln.cond.Signal()
			ln.mu.Unlock()
		}
		p.wg.Wait()
	}
}

// Dispatch plans and enqueues a run of events in delivery order. It returns
// on the first invalid event with the same error (and the same side
// effects: prior events stay delivered) as the single-writer path, wrapped
// as "at <id>: ...". Stamping is asynchronous — use Barrier to wait for
// visibility. With one shard, Dispatch stamps inline and is synchronous.
func (p *Pipeline) Dispatch(events []model.Event) error {
	return p.DispatchTraced(events, nil)
}

// DispatchTraced is Dispatch with a span sink for a sampled run: bt receives
// plan_wait (time blocked on the planner mutex or queued behind earlier
// batches), plan (validation + cluster decisions), and — with one shard —
// the inline stamp span. Multi-shard stamping records per-lane spans
// asynchronously as the lanes drain. A nil bt makes this identical to
// Dispatch. On a pipelined-planner pipeline the call routes through the plan
// queue and waits for the planner's verdict.
func (p *Pipeline) DispatchTraced(events []model.Event, bt BatchTracer) error {
	if len(events) == 0 {
		return nil
	}
	if p.async {
		return p.dispatchQueued(events, bt, true)
	}
	var lockStart time.Time
	if bt != nil {
		lockStart = time.Now()
	}
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.closed {
		return ErrPipelineClosed
	}
	planSpan := -1
	if bt != nil {
		bt.Span("plan_wait", -1, -1, lockStart, time.Since(lockStart))
		planSpan = bt.Begin("plan", -1, -1)
		p.curBT = bt
	}
	failID, err := p.planBatch(events)
	p.flushLocked()
	if bt != nil {
		if p.stampDur > 0 {
			bt.Span("stamp", 0, planSpan, p.stampStart, p.stampDur)
			p.stampDur = 0
		}
		p.curBT = nil
		bt.End(planSpan)
	}
	if err != nil {
		return fmt.Errorf("at %v: %w", failID, err)
	}
	return nil
}

// DispatchOne plans and enqueues a single event, returning the raw
// (unwrapped) validation error, mirroring Monitor.Deliver.
func (p *Pipeline) DispatchOne(e model.Event) error {
	events := [1]model.Event{e}
	if p.async {
		return p.dispatchQueued(events[:], nil, false)
	}
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.closed {
		return ErrPipelineClosed
	}
	_, err := p.planBatch(events[:])
	p.flushLocked()
	return err
}

// planBatch runs the two planner passes over one run and returns the raw
// first error with the offending event's ID (the caller applies batch or
// single-event wrapping). Called with planMu held.
func (p *Pipeline) planBatch(events []model.Event) (model.EventID, error) {
	final, failID, err := p.validateBatch(events)
	p.clusterPlanBatch(final)
	return failID, err
}

// validateBatch is planning pass 1: the delivery-order validation state
// machine over next/pendSend/syncHold. Checks run in two layers with a
// partial mutation that is part of the error contract: the history layer
// (process range, duplicate, index gap, unknown send) consumes the event's
// frontier slot before the clock layer (sync pairing) can reject it. Only
// an event the clock layer accepts changes the in-flight send table, so a
// rejected send never becomes receivable. It touches no cluster state;
// finalized events (sync pairs adjacently, completed pairs only) land in the
// reused planBuf for pass 2, carrying their send-clock slots.
func (p *Pipeline) validateBatch(events []model.Event) (final []item, failID model.EventID, err error) {
	final = p.planBuf[:0]
	for i := range events {
		e := events[i]
		pr := int(e.ID.Process)
		if pr < 0 || pr >= p.numProcs {
			failID, err = e.ID, fmt.Errorf("%w: %v", ErrProcOutOfRange, e.ID)
			break
		}
		want := p.next[pr]
		if e.ID.Index < want {
			failID, err = e.ID, fmt.Errorf("%w: %v", ErrDuplicate, e.ID)
			break
		}
		if e.ID.Index != want {
			failID, err = e.ID, fmt.Errorf("%w: %v, want index %d", ErrBadIndex, e.ID, want)
			break
		}
		var ps pendingSend
		if e.Kind == model.Receive {
			var ok bool
			if ps, ok = p.pendSend[e.Partner]; !ok {
				failID, err = e.ID, fmt.Errorf("%w: %v <- %v", ErrUnknownSend, e.ID, e.Partner)
				break
			}
		}
		p.next[pr] = want + 1

		// Fidge/Mattern layer.
		if p.syncHold != nil && e.Kind != model.Sync {
			failID, err = e.ID, fmt.Errorf("%w: %v arrived while sync %v pending", fm.ErrSyncInterleaved, e.ID, p.syncHold.ID)
			break
		}
		switch e.Kind {
		case model.Unary:
			final = append(final, item{ev: e, slot: -1})
		case model.Send:
			slot := int32(-1)
			if sh := p.smap[e.ID.Process]; sh == p.smap[e.Partner.Process] {
				slot = p.slots[sh].alloc()
			}
			p.pendSend[e.ID] = pendingSend{recv: e.Partner, slot: slot}
			final = append(final, item{ev: e, slot: slot})
		case model.Receive:
			delete(p.pendSend, e.Partner)
			if ps.slot >= 0 {
				ss := &p.slots[p.smap[e.ID.Process]]
				ss.free = append(ss.free, ps.slot)
			}
			final = append(final, item{ev: e, slot: ps.slot})
		case model.Sync:
			if p.syncHold == nil {
				held := e
				p.syncHold = &held
				continue
			}
			first := *p.syncHold
			if first.Partner != e.ID || e.Partner != first.ID {
				failID, err = e.ID, fmt.Errorf("%w: %v after %v", fm.ErrSyncPartner, e.ID, first.ID)
				break
			}
			p.syncHold = nil
			final = append(final, item{ev: first, slot: -1}, item{ev: e, slot: -1})
		default:
			failID, err = e.ID, fmt.Errorf("fm: unknown event kind %v for %v", e.Kind, e.ID)
		}
		if err != nil {
			break
		}
	}
	p.planBuf = final // retain growth for the next batch
	return final, failID, err
}

// clusterPlanBatch is planning pass 2: pin each finalized event's cluster
// epoch (nil for a noted cluster receive) in delivery order and stage the
// item.
func (p *Pipeline) clusterPlanBatch(final []item) {
	for i := range final {
		it := final[i]
		it.cl = p.classify(it.ev)
		it.bt = p.curBT
		p.stageItem(&it)
	}
}

// stageItem hands one planned item to its lane (inline with one shard).
func (p *Pipeline) stageItem(it *item) {
	if p.nshards == 1 {
		if p.curBT != nil {
			// Inline stamping: accumulate into one stamp span (emitted by
			// the dispatching path) instead of one span per event.
			t0 := time.Now()
			p.lanes[0].process(it)
			if p.stampDur == 0 {
				p.stampStart = t0
			}
			p.stampDur += time.Since(t0)
		} else {
			p.lanes[0].process(it)
		}
		p.issued[0]++
		return
	}
	s := p.smap[it.ev.ID.Process]
	p.curBufs[s] = append(p.curBufs[s], *it)
	p.issued[s]++
}

// flushLocked appends the staged items to their lanes, preserving planner
// order per lane. Called with planMu held, so cross-batch lane order equals
// planner order.
func (p *Pipeline) flushLocked() {
	if p.nshards == 1 {
		return
	}
	for s, buf := range p.curBufs {
		if len(buf) == 0 {
			continue
		}
		ln := p.lanes[s]
		ln.mu.Lock()
		ln.queue = append(ln.queue, buf...)
		ln.cond.Signal()
		ln.mu.Unlock()
		p.curBufs[s] = buf[:0]
	}
}

// Barrier blocks until every item dispatched before the call has been
// stamped and published. With an inline planner and one shard it is a no-op
// (Dispatch is synchronous there); with the pipelined planner it also covers
// every batch accepted by DispatchAsync before the call. Safe for concurrent
// callers.
func (p *Pipeline) Barrier() {
	if p.async {
		p.asyncBarrier()
		return
	}
	p.snapshotBarrier()
}

// snapshotBarrier waits for the lanes to cover the current issued counts.
// Correct only when every accepted batch has already been planned (inline
// mode, or the async fast path with an idle planner).
func (p *Pipeline) snapshotBarrier() {
	if p.nshards == 1 {
		return
	}
	bp, _ := p.snapPool.Get().(*[]uint64)
	if bp == nil {
		bp = new([]uint64)
	}
	p.planMu.Lock()
	*bp = append((*bp)[:0], p.issued...)
	p.planMu.Unlock()
	snap := *bp
	p.doneMu.Lock()
	for !covered(p.done, snap) {
		p.doneCond.Wait()
	}
	p.doneMu.Unlock()
	p.snapPool.Put(bp)
}

func covered(done, snap []uint64) bool {
	for i, want := range snap {
		if done[i] < want {
			return false
		}
	}
	return true
}

// SetWaitObserver installs the observer for blocking cross-shard waits.
func (p *Pipeline) SetWaitObserver(o WaitObserver) {
	if o == nil {
		p.wo.Store(nil)
		return
	}
	p.wo.Store(&o)
}

func (p *Pipeline) observeWait(d time.Duration) {
	if op := p.wo.Load(); op != nil {
		(*op).Observe(d)
	}
}

// IngestShards returns the number of ingest lanes.
func (p *Pipeline) IngestShards() int { return p.nshards }

// ShardEventsInto appends the per-shard dispatched-item counts to buf.
func (p *Pipeline) ShardEventsInto(buf []uint64) []uint64 {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return append(buf, p.issued...)
}

// CrossShardWaits returns the total number of blocking rendezvous waits.
func (p *Pipeline) CrossShardWaits() int64 {
	var total int64
	for _, ln := range p.lanes {
		total += ln.waits.Load()
	}
	return total
}

// Result returns the accounting snapshot (see Result), read under the plan
// mutex so its fields are mutually consistent. Like every accounting method
// it reflects planned work, which may be ahead of what is published; call
// Barrier first for an exact snapshot.
func (p *Pipeline) Result() Result {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.result()
}

// Events returns the number of events finalized by the planner.
func (p *Pipeline) Events() int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.events
}

// ClusterReceives returns the number of noted (non-merged) cluster receives.
func (p *Pipeline) ClusterReceives() int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.crEvents
}

// MergedClusterReceives returns the number of merge-triggering cluster
// receives.
func (p *Pipeline) MergedClusterReceives() int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.mergedCRs
}

// Merges returns the number of cluster merges performed.
func (p *Pipeline) Merges() int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.part.Merges()
}

// LiveSizesInto appends the live cluster sizes to buf.
func (p *Pipeline) LiveSizesInto(buf []int) []int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return p.part.LiveSizesInto(buf)
}

// MaxClusterSize returns the configured cluster-size bound.
func (p *Pipeline) MaxClusterSize() int { return p.cfg.MaxClusterSize }

// PendingSends returns the number of delivered sends awaiting their receive.
func (p *Pipeline) PendingSends() int {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return len(p.pendSend)
}

// checkDrained reports an error if the delivered stream ended in an
// inconsistent state: an unpaired synchronous event, or sends that were
// never received.
func (p *Pipeline) checkDrained() error {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.syncHold != nil {
		return fmt.Errorf("hct: stream ended with unpaired sync %v", p.syncHold.ID)
	}
	for id := range p.pendSend {
		return fmt.Errorf("hct: stream ended with %d unreceived sends (e.g. %v)", len(p.pendSend), id)
	}
	return nil
}

// PendingSendTargets returns, per in-flight send, the receive it targets.
func (p *Pipeline) PendingSendTargets() map[model.EventID]model.EventID {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	out := make(map[model.EventID]model.EventID, len(p.pendSend))
	for id, ps := range p.pendSend {
		out[id] = ps.recv
	}
	return out
}

// FrontierNext returns, per process, the index of the next undelivered
// event.
func (p *Pipeline) FrontierNext() []model.EventIndex {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	return append([]model.EventIndex(nil), p.next...)
}

// heldSync is a lane's half-completed same-shard synchronous pair.
type heldSync struct {
	it   item
	base vclock.Clock // first half's own base clock, not yet joined
}

// lane is one ingest shard: a queue of planned items and the writer-private
// stamping state for its processes.
type lane struct {
	pl *Pipeline
	id int32

	mu    sync.Mutex
	cond  *sync.Cond
	queue []item
	spare []item // recycled chunk buffer (double-buffer swap)
	stop  bool

	frontier []vclock.Clock // per process; only this lane's entries are used
	free     []vclock.Clock // retired clocks, reused for retained copies
	ar       arena
	slots    []vclock.Clock // same-lane in-flight send clocks, by planner slot
	held     *heldSync

	// Batched rendezvous state (see the file comment). pendPuts buffers
	// outbound cross-lane send clocks per stripe; pendN counts them so the
	// empty check is one comparison. Buffered puts are flushed under one
	// stripe-lock acquisition each — before every blocking operation and at
	// the end of each chunk. want is the per-stripe scratch for the chunk
	// prescan; prefetched holds the clocks it claimed, consumed by this
	// chunk's receives.
	pendPuts   [rvStripes][]rvPut
	pendN      int
	want       [rvStripes][]model.EventID
	prefetched map[model.EventID]vclock.Clock

	// curBT/curSpan name the traced run whose items are being processed,
	// so rendezvous waits attach as children of the lane's stamp span.
	// Lane-goroutine-private (single-shard: written under planMu).
	curBT   BatchTracer
	curSpan int

	waits atomic.Int64 // blocking cross-shard waits
}

// run drains the queue until stopped, in chunks: all currently queued items
// are claimed in one lock acquisition, processed, then reported done.
func (ln *lane) run() {
	defer ln.pl.wg.Done()
	for {
		ln.mu.Lock()
		for len(ln.queue) == 0 && !ln.stop {
			ln.cond.Wait()
		}
		if len(ln.queue) == 0 {
			ln.mu.Unlock()
			return
		}
		chunk := ln.queue
		ln.queue = ln.spare[:0]
		ln.mu.Unlock()
		ln.prefetchTakes(chunk)
		// Contiguous items from the same traced run share one stamp span;
		// a chunk can interleave items from many dispatches, traced or not.
		for i := 0; i < len(chunk); {
			bt := chunk[i].bt
			if bt == nil {
				ln.process(&chunk[i])
				i++
				continue
			}
			sp := bt.Begin("stamp", int(ln.id), -1)
			ln.curBT, ln.curSpan = bt, sp
			for i < len(chunk) && chunk[i].bt == bt {
				ln.process(&chunk[i])
				i++
			}
			ln.curBT, ln.curSpan = nil, -1
			bt.End(sp)
		}
		// Flush buffered puts before the done update and before blocking on
		// an empty queue: another lane may need them to finish its chunk.
		ln.flushPuts()
		ln.spare = chunk[:0]
		ln.pl.doneMu.Lock()
		ln.pl.done[ln.id] += uint64(len(chunk))
		ln.pl.doneCond.Broadcast()
		ln.pl.doneMu.Unlock()
	}
}

// prefetchTakes prescans a claimed chunk and claims, per stripe under one
// lock acquisition, every already-published clock its cross-lane receives
// will need. Misses stay in the rendezvous and fall back to the blocking
// take. Claiming early cannot starve another lane: each send has exactly one
// receive, and the shard map routes it here; and every claimed clock is
// consumed before the chunk ends, because the receive that needs it is in
// this chunk and lanes never abandon items.
func (ln *lane) prefetchTakes(chunk []item) {
	n := 0
	for i := range chunk {
		e := &chunk[i].ev
		if e.Kind == model.Receive && chunk[i].slot < 0 {
			s := stripeIdx(e.Partner)
			ln.want[s] = append(ln.want[s], e.Partner)
			n++
		}
	}
	if n == 0 {
		return
	}
	for s := range ln.want {
		ids := ln.want[s]
		if len(ids) == 0 {
			continue
		}
		st := &ln.pl.rv.stripes[s]
		st.mu.Lock()
		for _, id := range ids {
			if clk, ok := st.clocks[id]; ok {
				delete(st.clocks, id)
				ln.prefetched[id] = clk
			}
		}
		st.mu.Unlock()
		ln.want[s] = ids[:0]
	}
}

// flushPuts publishes the buffered cross-lane send clocks: one stripe-lock
// acquisition and one wakeup per non-empty stripe, however many clocks it
// carries. MUST be called before any operation that can block — a buffered
// put may be exactly the clock another lane is blocked on.
func (ln *lane) flushPuts() {
	if ln.pendN == 0 {
		return
	}
	for s := range ln.pendPuts {
		ps := ln.pendPuts[s]
		if len(ps) == 0 {
			continue
		}
		st := &ln.pl.rv.stripes[s]
		st.mu.Lock()
		for _, pu := range ps {
			st.clocks[pu.id] = pu.clk
		}
		st.cond.Broadcast()
		st.mu.Unlock()
		// Ownership moved to the takers; drop the references so the buffer
		// does not pin clocks now recycled by other lanes.
		for j := range ps {
			ps[j] = rvPut{}
		}
		ln.pendPuts[s] = ps[:0]
	}
	ln.pendN = 0
}

// process stamps one planned item: the central Fidge/Mattern computation
// of Section 2.2 followed by the cluster-timestamp stamping, restricted to
// this lane's processes.
func (ln *lane) process(it *item) {
	e := it.ev
	if e.Kind == model.Sync {
		ln.processSync(it)
		return
	}
	clk := ln.bump(e)
	if e.Kind == model.Receive {
		sclk := ln.takeSend(e.Partner, it.slot)
		clk.MaxInto(sclk)
		ln.free = append(ln.free, sclk)
	}
	ln.stamp(e, clk, it.cl)
	if e.Kind == model.Send {
		// Forward only after publishing the cell and note: a clock visible
		// to another lane must count only published events (see the file
		// comment).
		ln.forwardSend(e, clk, it.slot)
	}
}

// processSync stamps one half of a synchronous pair. Same-lane pairs
// complete locally (the planner dispatches the halves adjacently);
// cross-lane pairs run the two-round exchange described in the file
// comment.
func (ln *lane) processSync(it *item) {
	e := it.ev
	if ln.pl.smap[e.Partner.Process] == ln.id {
		if ln.held == nil {
			ln.held = &heldSync{it: *it, base: ln.ownClock(e)}
			return
		}
		first := ln.held
		ln.held = nil
		clk := ln.bump(e)
		clk.MaxInto(first.base)
		ln.free = append(ln.free, first.base)
		p1 := first.it.ev.ID.Process
		f1 := ln.frontier[p1]
		if f1 == nil {
			f1 = vclock.New(ln.pl.numProcs)
			ln.frontier[p1] = f1
		}
		f1.CopyFrom(clk)
		ln.stamp(first.it.ev, f1, first.it.cl)
		ln.stamp(e, clk, it.cl)
		return
	}

	// The exchange below blocks; buffered puts must be visible first.
	ln.flushPuts()

	// Round 1: exchange base clocks (put before take: no deadlock) and
	// stamp the joint clock. max is commutative, so both sides compute the
	// identical vector.
	base := ln.ownClock(e)
	ln.pl.rv.put(e.ID, base)
	pclk, waited := ln.pl.rv.take(e.Partner)
	ln.noteWait(waited)
	joint := ln.bump(e) // frontier now equals base
	joint.MaxInto(pclk)
	ln.free = append(ln.free, pclk)
	ln.stamp(e, joint, it.cl)

	// Round 2: our joint clock counts the partner's own event, so later
	// items of this lane must not forward it until the partner's cell and
	// note are published.
	ln.pl.rv.putDone(e.ID)
	waited = ln.pl.rv.takeDone(e.Partner)
	ln.noteWait(waited)
}

func (ln *lane) noteWait(d time.Duration) {
	if d > 0 {
		ln.waits.Add(1)
		ln.pl.observeWait(d)
		if ln.curBT != nil {
			// The wait just ended; back-date its start from the duration.
			ln.curBT.Span("xwait", int(ln.id), ln.curSpan, time.Now().Add(-d), d)
		}
	}
}

// bump advances the frontier of e's process in place and returns it.
func (ln *lane) bump(e model.Event) vclock.Clock {
	p := e.ID.Process
	clk := ln.frontier[p]
	if clk == nil {
		clk = vclock.New(ln.pl.numProcs)
		ln.frontier[p] = clk
	}
	clk[p]++
	return clk
}

// ownClock returns a private copy of e's base clock (predecessor's clock
// with the own component incremented) without advancing the frontier.
func (ln *lane) ownClock(e model.Event) vclock.Clock {
	p := e.ID.Process
	var clk vclock.Clock
	if prev := ln.frontier[p]; prev != nil {
		clk = ln.retain(prev)
	} else {
		clk = vclock.New(ln.pl.numProcs)
	}
	clk[p]++
	return clk
}

// retain copies clk into a (possibly recycled) private vector.
func (ln *lane) retain(clk vclock.Clock) vclock.Clock {
	if n := len(ln.free); n > 0 {
		cp := ln.free[n-1]
		ln.free = ln.free[:n-1]
		cp.CopyFrom(clk)
		return cp
	}
	return clk.Clone()
}

// forwardSend parks a private copy of the send's finalized clock where its
// receive will look: the planner-assigned slot for a same-lane receiver, the
// per-stripe put buffer (flushed in batches) for a cross-lane one.
func (ln *lane) forwardSend(e model.Event, clk vclock.Clock, slot int32) {
	cp := ln.retain(clk)
	if slot >= 0 {
		if int(slot) >= len(ln.slots) {
			ln.slots = append(ln.slots, make([]vclock.Clock, int(slot)+1-len(ln.slots))...)
		}
		ln.slots[slot] = cp
		return
	}
	s := stripeIdx(e.ID)
	ln.pendPuts[s] = append(ln.pendPuts[s], rvPut{id: e.ID, clk: cp})
	ln.pendN++
}

// takeSend fetches the matching send's clock — the same-lane slot, then the
// chunk's prefetched claims, then the blocking rendezvous take. The caller
// owns the result and should recycle it after use.
func (ln *lane) takeSend(sendID model.EventID, slot int32) vclock.Clock {
	if slot >= 0 {
		clk := ln.slots[slot]
		ln.slots[slot] = nil
		return clk
	}
	if clk, ok := ln.prefetched[sendID]; ok {
		delete(ln.prefetched, sendID)
		return clk
	}
	ln.flushPuts() // about to block: buffered puts must be visible first
	clk, waited := ln.pl.rv.take(sendID)
	ln.noteWait(waited)
	return clk
}

// stamp converts a finalized clock into the event's timestamp and publishes
// it: note before cell, cell write before watermark store (see store.go).
func (ln *lane) stamp(e model.Event, clk vclock.Clock, cl *cluster.Info) {
	p := e.ID.Process
	t := Timestamp{ID: e.ID, Kind: e.Kind, Partner: e.Partner}
	if cl == nil {
		t.Full = clk.Clone()
		ln.pl.crs[p].append(crNote{index: int32(e.ID.Index), clock: t.Full})
		ln.pl.crs[p].publish() // before the cell: see store.go
	} else {
		t.Cluster = cl
		t.Proj = clk.ProjectInto(ln.ar.carve(len(cl.Members)), cl.Members)
	}
	ln.pl.cols[p].append(t)
	ln.pl.cols[p].publish()
}

// rvStripes is the number of rendezvous stripes (a power of two; the stripe
// hash masks with rvStripes-1).
const rvStripes = 64

// rvPut is one buffered cross-lane send clock awaiting a batched publish.
type rvPut struct {
	id  model.EventID
	clk vclock.Clock
}

// rendezvous is the cross-shard meeting point: a striped map from event ID
// to a finalized clock (sends and sync base clocks) plus a published-mark
// set (sync round 2). Striping keeps unrelated waits off each other's lock.
type rendezvous struct {
	stripes [rvStripes]rvStripe
}

type rvStripe struct {
	mu     sync.Mutex
	cond   sync.Cond
	clocks map[model.EventID]vclock.Clock
	marks  map[model.EventID]struct{}
}

func (rv *rendezvous) init() {
	for i := range rv.stripes {
		s := &rv.stripes[i]
		s.cond.L = &s.mu
		s.clocks = make(map[model.EventID]vclock.Clock)
		s.marks = make(map[model.EventID]struct{})
	}
}

func stripeIdx(id model.EventID) uint32 {
	h := uint32(id.Process)*0x9E3779B1 ^ uint32(id.Index)*0x85EBCA6B
	return h & (rvStripes - 1)
}

func (rv *rendezvous) stripeFor(id model.EventID) *rvStripe {
	return &rv.stripes[stripeIdx(id)]
}

// put publishes a clock under id. Ownership transfers to the taker.
func (rv *rendezvous) put(id model.EventID, clk vclock.Clock) {
	s := rv.stripeFor(id)
	s.mu.Lock()
	s.clocks[id] = clk
	s.cond.Broadcast()
	s.mu.Unlock()
}

// take blocks until a clock is published under id, consumes it, and
// reports how long the caller was blocked (zero if it never waited).
func (rv *rendezvous) take(id model.EventID) (vclock.Clock, time.Duration) {
	s := rv.stripeFor(id)
	var waited time.Duration
	s.mu.Lock()
	clk, ok := s.clocks[id]
	if !ok {
		start := time.Now()
		for !ok {
			s.cond.Wait()
			clk, ok = s.clocks[id]
		}
		waited = time.Since(start)
	}
	delete(s.clocks, id)
	s.mu.Unlock()
	return clk, waited
}

// putDone marks id's cell and note as published.
func (rv *rendezvous) putDone(id model.EventID) {
	s := rv.stripeFor(id)
	s.mu.Lock()
	s.marks[id] = struct{}{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// takeDone blocks until id is marked published and consumes the mark.
func (rv *rendezvous) takeDone(id model.EventID) time.Duration {
	s := rv.stripeFor(id)
	var waited time.Duration
	s.mu.Lock()
	_, ok := s.marks[id]
	if !ok {
		start := time.Now()
		for !ok {
			s.cond.Wait()
			_, ok = s.marks[id]
		}
		waited = time.Since(start)
	}
	delete(s.marks, id)
	s.mu.Unlock()
	return waited
}
