package hct

// This file is the pipelined planner: an optional stage that takes the plan
// work (validation + cluster decisions) off the dispatching goroutine. See
// the "Pipelined planner" and "Barrier" sections of pipeline.go's file
// comment for the protocol; PipelineOptions.PlanQueue selects the mode.
//
// The queue is a mutex+cond bounded slice, drained by the planner goroutine
// in chunks (double-buffered like the lanes' queues), not a channel: the
// planner claims everything queued under one lock acquisition, barrier
// markers must bypass the depth bound without a second channel, and Close
// must drain deterministically without send-on-closed hazards. The depth
// bound counts a batch from enqueue until the planner finishes planning it,
// so "queued" includes the batch in flight and PlanQueueDepth is an honest
// backlog gauge.
//
// Error contract. Synchronous dispatches (Dispatch, DispatchTraced,
// DispatchOne) carry a reply channel and block for the planner's verdict, so
// their errors are byte-identical to inline planning. DispatchAsync returns
// before planning; its batch's first error is parked on the queue and
// returned by the next DispatchAsync call, whose own batch is NOT enqueued —
// mirroring where a synchronous submitter would have stopped. Errors are
// per-batch, never sticky: the pipeline stays usable, exactly as after an
// inline dispatch error.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
)

// DefaultPlanQueue is the plan-queue depth (in batches) selected when
// PipelineOptions.PlanQueue is zero and the pipeline has more than one
// shard. Small on purpose: each queued batch is copied and held alive, and
// the queue only needs to be deep enough to keep the planner busy while the
// submitter decodes and journals the next batch.
const DefaultPlanQueue = 4

// SizeObserver receives instantaneous plan-queue depths (in batches), one
// observation per accepted asynchronous batch. The telemetry plane installs
// a size histogram here; obs.Histogram implements it.
type SizeObserver interface {
	ObserveValue(v int64)
}

// planReq is one unit of planner work: a batch to plan, or a barrier marker.
type planReq struct {
	events []model.Event
	owned  *[]model.Event // recycle into batchPool after planning (async copies)
	bt     BatchTracer
	enq    time.Time  // enqueue time, set when bt != nil (plan_wait span)
	reply  chan error // non-nil: a synchronous dispatcher awaits the verdict
	wrap   bool       // wrap the error "at <id>: ..." (batch semantics)

	barrier *barrierWait // non-nil: marker; all other fields unused
}

// barrierWait is a barrier marker's rendezvous with the planner: the planner
// fills snap with the issued counts after planning everything queued before
// the marker, then signals ch.
type barrierWait struct {
	snap []uint64
	ch   chan struct{}
}

// planQueue is the bounded feed between dispatchers and the planner
// goroutine.
type planQueue struct {
	mu    sync.Mutex
	ready sync.Cond // planner waits here for work
	avail sync.Cond // enqueuers wait here for space (or an error to report)

	reqs    []planReq
	spare   []planReq // recycled chunk buffer (planner-private between claims)
	limit   int
	batches int   // batches enqueued or in planning (markers exempt)
	stop    bool  // Close: reject new work, drain the rest
	err     error // first unreported asynchronous plan error
}

func (q *planQueue) init(limit int) {
	q.ready.L = &q.mu
	q.avail.L = &q.mu
	q.limit = limit
	q.reqs = make([]planReq, 0, limit+2)
	q.spare = make([]planReq, 0, limit+2)
}

// dispatchQueued routes a synchronous dispatch through the plan queue and
// blocks for the planner's verdict, preserving the inline error contract
// exactly. wrap selects batch ("at <id>: ...") versus raw single-event
// error wrapping.
func (p *Pipeline) dispatchQueued(events []model.Event, bt BatchTracer, wrap bool) error {
	reply, _ := p.replyPool.Get().(chan error)
	if reply == nil {
		reply = make(chan error, 1)
	}
	req := planReq{events: events, bt: bt, reply: reply, wrap: wrap}
	if bt != nil {
		req.enq = time.Now()
	}
	if err := p.enqueue(req); err != nil {
		p.replyPool.Put(reply)
		return err
	}
	err := <-reply
	p.replyPool.Put(reply)
	return err
}

// DispatchAsync plans, stamps, and publishes a run entirely off the calling
// goroutine: the batch is copied onto the plan queue (so the caller may
// reuse events immediately — the collector does) and the call returns once
// there is room, blocking only for backpressure when the queue is at its
// depth bound. Use Barrier to wait for visibility.
//
// Validation errors surface on a later call: the first error from an
// asynchronous batch is parked and returned by the next DispatchAsync,
// whose own batch is NOT enqueued. On a pipeline without the pipelined
// planner this is DispatchTraced (synchronous errors).
func (p *Pipeline) DispatchAsync(events []model.Event, bt BatchTracer) error {
	if !p.async {
		return p.DispatchTraced(events, bt)
	}
	if len(events) == 0 {
		return p.takeDeferred()
	}
	bp, _ := p.batchPool.Get().(*[]model.Event)
	if bp == nil {
		bp = new([]model.Event)
	}
	*bp = append((*bp)[:0], events...)
	req := planReq{events: *bp, owned: bp}
	req.bt = bt
	if bt != nil {
		req.enq = time.Now()
	}
	if err := p.enqueueAsync(req); err != nil {
		p.batchPool.Put(bp)
		return err
	}
	return nil
}

// enqueue pushes one request, waiting for space (barrier markers are exempt
// from the depth bound — a barrier must not deadlock against a full queue).
func (p *Pipeline) enqueue(req planReq) error {
	q := &p.pq
	q.mu.Lock()
	if req.barrier == nil {
		for !q.stop && q.batches >= q.limit {
			q.avail.Wait()
		}
	}
	if q.stop {
		q.mu.Unlock()
		return ErrPipelineClosed
	}
	q.reqs = append(q.reqs, req)
	depth := -1
	if req.barrier == nil {
		q.batches++
		depth = q.batches
	}
	q.ready.Signal()
	q.mu.Unlock()
	if depth >= 0 {
		p.observeQueueDepth(depth)
	}
	return nil
}

// enqueueAsync is enqueue for fire-and-forget batches: the deferred-error
// check and the push happen under one lock acquisition, so an error parked
// while this call waited for space is returned here (and the batch dropped)
// rather than raced past.
func (p *Pipeline) enqueueAsync(req planReq) error {
	q := &p.pq
	q.mu.Lock()
	for !q.stop && q.err == nil && q.batches >= q.limit {
		q.avail.Wait()
	}
	if err := q.err; err != nil {
		q.err = nil
		q.mu.Unlock()
		return err
	}
	if q.stop {
		q.mu.Unlock()
		return ErrPipelineClosed
	}
	q.reqs = append(q.reqs, req)
	q.batches++
	depth := q.batches
	q.ready.Signal()
	q.mu.Unlock()
	p.observeQueueDepth(depth)
	return nil
}

// takeDeferred returns (and clears) the parked asynchronous plan error.
func (p *Pipeline) takeDeferred() error {
	q := &p.pq
	q.mu.Lock()
	err := q.err
	q.err = nil
	q.mu.Unlock()
	return err
}

// parkDeferred parks the first unreported asynchronous plan error and wakes
// any enqueuer waiting for space so it can report it.
func (p *Pipeline) parkDeferred(err error) {
	q := &p.pq
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.avail.Broadcast()
	q.mu.Unlock()
}

// finishBatch retires one batch from the depth bound and wakes one waiting
// enqueuer.
func (p *Pipeline) finishBatch() {
	q := &p.pq
	q.mu.Lock()
	q.batches--
	q.avail.Signal()
	q.mu.Unlock()
}

// planner is the dedicated plan-stage goroutine: it claims everything queued
// under one lock acquisition, plans each batch under planMu (flushing the
// staged items to the lanes), and answers barrier markers with an
// issued-count snapshot. It exits only when stopped AND drained, so every
// accepted request is planned and every waiting dispatcher answered.
func (p *Pipeline) planner() {
	defer p.plannerWG.Done()
	q := &p.pq
	for {
		q.mu.Lock()
		for len(q.reqs) == 0 && !q.stop {
			q.ready.Wait()
		}
		if len(q.reqs) == 0 {
			q.mu.Unlock()
			return
		}
		claimed := q.reqs
		q.reqs = q.spare[:0]
		q.mu.Unlock()
		start := time.Now()
		for i := range claimed {
			p.planOne(&claimed[i])
			if claimed[i].barrier == nil {
				p.finishBatch()
			}
			claimed[i] = planReq{} // drop buffer/tracer references
		}
		p.busy.Add(int64(time.Since(start)))
		q.spare = claimed[:0]
	}
}

// planOne executes one queued request on the planner goroutine.
func (p *Pipeline) planOne(req *planReq) {
	if bw := req.barrier; bw != nil {
		p.planMu.Lock()
		bw.snap = append(bw.snap[:0], p.issued...)
		p.planMu.Unlock()
		bw.ch <- struct{}{}
		return
	}
	bt := req.bt
	planSpan := -1
	if bt != nil {
		bt.Span("plan_wait", -1, -1, req.enq, time.Since(req.enq))
		planSpan = bt.Begin("plan", -1, -1)
	}
	p.planMu.Lock()
	p.curBT = bt
	failID, err := p.planBatch(req.events)
	p.flushLocked()
	stampStart, stampDur := p.stampStart, p.stampDur
	p.stampDur = 0
	p.curBT = nil
	p.planMu.Unlock()
	if bt != nil {
		if stampDur > 0 {
			// Single-shard pipelined planner: stamping ran inline here.
			bt.Span("stamp", 0, planSpan, stampStart, stampDur)
		}
		bt.End(planSpan)
	}
	if req.owned != nil {
		p.batchPool.Put(req.owned)
	}
	if err != nil && req.wrap {
		err = fmt.Errorf("at %v: %w", failID, err)
	}
	if req.reply != nil {
		req.reply <- err
		return
	}
	if err != nil {
		if !req.wrap {
			err = fmt.Errorf("at %v: %w", failID, err)
		}
		p.parkDeferred(err)
	}
}

// asyncBarrier is Barrier for the pipelined planner: once the planner has
// planned everything accepted before the call (drainPlanner), the lanes are
// waited on to cover the issued counts snapshotted right after it.
func (p *Pipeline) asyncBarrier() {
	bw := p.drainPlanner()
	if bw == nil {
		p.snapshotBarrier()
		return
	}
	if p.nshards > 1 {
		p.doneMu.Lock()
		for !covered(p.done, bw.snap) {
			p.doneCond.Wait()
		}
		p.doneMu.Unlock()
	}
	p.bwPool.Put(bw)
}

// PlanBarrier blocks until every batch accepted before the call has been
// planned, so the accounting (Result, Events, ...) counts it. Unlike Barrier
// it does not wait for the lanes to stamp. A no-op with the inline planner,
// where Dispatch plans before it returns.
func (p *Pipeline) PlanBarrier() {
	if !p.async {
		return
	}
	if bw := p.drainPlanner(); bw != nil {
		p.bwPool.Put(bw)
	}
}

// drainPlanner waits until the planner has planned every batch accepted
// before the call. Fast path: with the queue empty and the planner idle,
// everything accepted is already planned and it returns nil at once — the
// common case on query paths, which barrier per frame. Otherwise a marker
// rides the queue FIFO behind the outstanding batches and is returned with
// snap holding the issued counts right after them; the caller puts it back
// into bwPool. It also returns nil once a closed pipeline's planner has
// drained.
func (p *Pipeline) drainPlanner() *barrierWait {
	q := &p.pq
	q.mu.Lock()
	busy := q.batches > 0
	q.mu.Unlock()
	if !busy {
		return nil
	}
	bw, _ := p.bwPool.Get().(*barrierWait)
	if bw == nil {
		bw = &barrierWait{ch: make(chan struct{}, 1)}
	}
	if err := p.enqueue(planReq{barrier: bw}); err != nil {
		// Closed. The planner drains before exiting; wait it out.
		p.bwPool.Put(bw)
		p.plannerWG.Wait()
		return nil
	}
	<-bw.ch
	return bw
}

// PlannerPipelined reports whether planning runs on a dedicated goroutine.
func (p *Pipeline) PlannerPipelined() bool { return p.async }

// PlannerBusy returns the cumulative time the planner goroutine has spent
// planning (zero on an inline-planning pipeline).
func (p *Pipeline) PlannerBusy() time.Duration { return time.Duration(p.busy.Load()) }

// PlannerOccupancy returns the fraction of wall time since construction the
// planner goroutine spent planning — the saturation gauge for the plan
// stage. Zero on an inline-planning pipeline.
func (p *Pipeline) PlannerOccupancy() float64 {
	if !p.async {
		return 0
	}
	wall := time.Since(p.start)
	if wall <= 0 {
		return 0
	}
	occ := float64(p.busy.Load()) / float64(wall)
	if occ > 1 {
		occ = 1
	}
	return occ
}

// PlanQueueDepth returns the number of batches accepted but not yet planned
// (the one in planning included). Zero on an inline-planning pipeline.
func (p *Pipeline) PlanQueueDepth() int {
	if !p.async {
		return 0
	}
	p.pq.mu.Lock()
	defer p.pq.mu.Unlock()
	return p.pq.batches
}

// SetPlanQueueObserver installs the observer for plan-queue depths.
func (p *Pipeline) SetPlanQueueObserver(o SizeObserver) {
	if o == nil {
		p.pqo.Store(nil)
		return
	}
	p.pqo.Store(&o)
}

func (p *Pipeline) observeQueueDepth(depth int) {
	if op := p.pqo.Load(); op != nil {
		(*op).ObserveValue(int64(depth))
	}
}
