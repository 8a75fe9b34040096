package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// Validation errors returned by the collector when an instrumentation stream
// is corrupt. They are named so callers (and tests) can classify rejections
// with errors.Is; every rejection leaves the collector's bookkeeping exactly
// as it was before the offending record.
var (
	// ErrBadPartner marks a communication event whose partner reference is
	// structurally impossible: missing, out of range, or within the event's
	// own process.
	ErrBadPartner = errors.New("monitor: bad partner reference")
	// ErrSelfSync marks a synchronous event partnered with itself. (Before
	// this was rejected, such an event was delivered twice: once as itself
	// and once as its own "partner half", driving the held count negative
	// and advancing the process frontier by two.)
	ErrSelfSync = errors.New("monitor: sync event partnered with itself")
	// ErrSyncMismatch marks a pair of front events that claim to be sync
	// partners but do not reference each other (or are not both syncs).
	ErrSyncMismatch = errors.New("monitor: sync halves do not reference each other")
	// ErrReceiveMismatch marks a receive whose named send was delivered but
	// targets a different event (or was already claimed by another receive).
	ErrReceiveMismatch = errors.New("monitor: receive does not match its send's target")
)

// RunJournal persists each deliverable run before it is handed to the
// monitor, making ingestion write-ahead durable. AppendRun must have made
// the run durable (to the configured fsync policy) when it returns; Stats
// renders the journal's counters for the server's STATS surface.
// internal/wal.Log is the production implementation.
type RunJournal interface {
	AppendRun(events []model.Event) error
	Stats() string
}

// Collector feeds a Monitor from concurrently-producing processes. Each
// instrumented process reports its own events in order, but the interleaving
// across processes is arbitrary: a receive's record may arrive at the
// collector before the matching send's record (the network offers no global
// ordering). The collector buffers such events and releases them to the
// monitor as soon as they become deliverable:
//
//   - an event is held until it is the next event of its process;
//   - a receive is additionally held until its matching send has been
//     delivered;
//   - a synchronous event is held until its partner is also at the front of
//     its own process, whereupon both halves are delivered back to back.
//
// Submit and SubmitBatch may be called from many goroutines. Deliverable
// events are handed to the monitor as one run per call — the monitor's
// write lock is taken once per run, not once per event — which is what
// makes batched network ingestion fast. When a journal is attached, each
// run is appended to it before delivery, so the durable log is always a
// run-atomic prefix of the monitor's state. Close drains the stream and
// reports any stranded events (which indicate a corrupt or incomplete
// computation).
type Collector struct {
	m *Monitor

	mu      sync.Mutex
	closed  bool
	pending []map[model.EventIndex]model.Event // per process: arrived, undelivered
	next    []model.EventIndex                 // next index to deliver per process
	held    int
	run     []model.Event // deliverable run being assembled (reused)
	journal RunJournal    // optional write-ahead journal

	// pipelined selects asynchronous delivery: flush dispatches the run to
	// the monitor's ingest shards and returns without waiting for the
	// stamps to publish, overlapping the next run's assembly (and journal
	// append) with the current run's vector math. The journal ordering
	// contract is unchanged — AppendRun still completes before the run is
	// dispatched, so the durable log remains a run-atomic prefix of what
	// the pipeline has accepted. Callers that need read-your-writes (the
	// server's query surfaces) issue Monitor.IngestBarrier first.
	pipelined bool

	// Optional telemetry (set by the server when instrumented): latency of
	// the monitor delivery inside each flush, and the delivered run sizes.
	deliverHist *obs.Histogram
	runHist     *obs.Histogram

	// spans, when set, is shared with this collector's write-ahead journal
	// (wal.Options.Spans): flush installs the current run's trace there so
	// the WAL can record append/fsync spans without an API change to
	// RunJournal. The collector's mutex serializes Set/Clear around the
	// append.
	spans *obs.SpanScope

	// sentPartner maps each delivered send to the receive it targets, until
	// that receive is delivered. It mirrors the planner's in-flight send
	// table and lets the collector reject a receive whose
	// send references a different event before any state is corrupted.
	sentPartner map[model.EventID]model.EventID

	// syncWaiters maps a claimed sync-partner ID to the process whose front
	// sync is blocked waiting for it. When the claimed event reaches the
	// front of its own process, the waiter is requeued so a non-reciprocal
	// pairing is detected from the claimant's side too (otherwise a stale
	// claim on a busy partner would strand silently until Close).
	syncWaiters map[model.EventID]int

	// Scratch buffers reused across SubmitBatch calls (guarded by mu), so
	// the hot single-event v1 path does not allocate per call.
	touched []int  // processes touched by the current batch
	seen    []bool // per process: already in touched
	work    []int  // drain work queue
	inWork  []bool // per process: queued in work
}

// NewCollector wraps a monitor for out-of-order ingestion. The collector
// resumes from the monitor's current state: its per-process frontiers and
// in-flight send table are seeded from the planner's, so a
// collector built over a monitor reconstructed from a write-ahead log
// accepts the stream exactly where the recovered state left off.
func NewCollector(m *Monitor) *Collector {
	n := m.NumProcs()
	pending := make([]map[model.EventIndex]model.Event, n)
	for i := range pending {
		pending[i] = make(map[model.EventIndex]model.Event)
	}
	return &Collector{
		m:           m,
		pending:     pending,
		next:        m.frontierNext(),
		sentPartner: m.pendingSendTargets(),
		syncWaiters: make(map[model.EventID]int),
		seen:        make([]bool, n),
		inWork:      make([]bool, n),
	}
}

// Submit accepts one event record from a process's instrumentation and
// delivers every event that became deliverable as a result.
func (c *Collector) Submit(e model.Event) error {
	batch := [1]model.Event{e}
	_, err := c.SubmitBatch(batch[:])
	return err
}

// SubmitBatch accepts a batch of event records — the payload of one EVENTS
// frame — and delivers everything that became deliverable as one run. The
// records may be from any mix of processes and in any order. On a bad
// record the batch's prefix stays applied and the error names the offender;
// already-deliverable events are still delivered. The returned count is the
// number of records accepted into the collector (the applied prefix), which
// callers must account even when err is non-nil.
func (c *Collector) SubmitBatch(events []model.Event) (accepted int, err error) {
	return c.SubmitBatchTraced(events, nil)
}

// SubmitBatchTraced is SubmitBatch carrying the batch's span trace (nil for
// unsampled batches, which is the hot path and costs only nil checks). The
// collector records the validate span (insert + enablement drain); flush
// scopes the WAL append and threads the trace into the delivery pipeline.
func (c *Collector) SubmitBatchTraced(events []model.Event, tr *obs.Trace) (accepted int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	vs := tr.Begin("validate", -1, -1)
	var firstErr error
	touched := c.touched[:0]
	for i, e := range events {
		if err := c.insert(e); err != nil {
			if len(events) == 1 {
				firstErr = err
			} else {
				firstErr = fmt.Errorf("batch record %d: %w", i, err)
			}
			break
		}
		accepted++
		p := int(e.ID.Process)
		if !c.seen[p] {
			c.seen[p] = true
			touched = append(touched, p)
		}
	}
	for _, p := range touched {
		c.seen[p] = false
	}
	if err := c.drain(touched); err != nil && firstErr == nil {
		firstErr = err
	}
	c.touched = touched[:0] // retain any growth for the next batch
	tr.End(vs)
	if err := c.flush(tr); err != nil && firstErr == nil {
		firstErr = err
	}
	return accepted, firstErr
}

// insert validates one record and buffers it as pending.
func (c *Collector) insert(e model.Event) error {
	p := int(e.ID.Process)
	if p < 0 || p >= len(c.pending) {
		return fmt.Errorf("monitor: event %v: process out of range", e.ID)
	}
	if e.ID.Index < c.next[p] {
		return fmt.Errorf("monitor: event %v already delivered", e.ID)
	}
	if _, dup := c.pending[p][e.ID.Index]; dup {
		return fmt.Errorf("monitor: duplicate submission of %v", e.ID)
	}
	switch e.Kind {
	case model.Unary:
		// Partner references on unary events are ignored downstream, but a
		// present one signals a corrupt stream; tolerate it as before.
	case model.Send, model.Receive, model.Sync:
		q := int(e.Partner.Process)
		if e.Partner.IsZero() || q < 0 || q >= len(c.pending) {
			return fmt.Errorf("monitor: event %v partner %v: %w", e.ID, e.Partner, ErrBadPartner)
		}
		if e.Partner == e.ID {
			if e.Kind == model.Sync {
				return fmt.Errorf("monitor: event %v: %w", e.ID, ErrSelfSync)
			}
			return fmt.Errorf("monitor: event %v partner %v: %w", e.ID, e.Partner, ErrBadPartner)
		}
		if e.Partner.Process == e.ID.Process {
			return fmt.Errorf("monitor: event %v partner %v: %w", e.ID, e.Partner, ErrBadPartner)
		}
	default:
		return fmt.Errorf("monitor: unknown kind %v for %v", e.Kind, e.ID)
	}
	c.pending[p][e.ID.Index] = e
	c.held++
	return nil
}

// delivered reports whether the event with the given ID has been delivered.
func (c *Collector) delivered(id model.EventID) bool {
	return id.Index < c.next[id.Process]
}

// front returns the front event of process p, if it has arrived.
func (c *Collector) front(p int) (model.Event, bool) {
	e, ok := c.pending[p][c.next[p]]
	return e, ok
}

// drain repeatedly appends deliverable front events to the current run,
// starting from the given processes and following the enablement edges (a
// delivered send may unblock its receiver; a delivered event always may
// unblock its own process's next). On a validation error the offending
// events stay pending and everything delivered so far remains in the run.
func (c *Collector) drain(start []int) error {
	work := c.work[:0]
	for _, p := range start {
		if !c.inWork[p] {
			c.inWork[p] = true
			work = append(work, p)
		}
	}
	var err error
	head := 0
scan:
	for head < len(work) {
		p := work[head]
		head++
		c.inWork[p] = false

	inner:
		for {
			e, ok := c.front(p)
			if !ok {
				break inner
			}
			// A sync elsewhere may be blocked waiting on this event; now
			// that it is front, rescan the waiter so its pairing claim is
			// validated (and rejected if non-reciprocal).
			if w, waited := c.syncWaiters[e.ID]; waited {
				delete(c.syncWaiters, e.ID)
				if !c.inWork[w] {
					c.inWork[w] = true
					work = append(work, w)
				}
			}
			switch e.Kind {
			case model.Unary:
				c.deliver(e)
			case model.Send:
				c.sentPartner[e.ID] = e.Partner
				c.deliver(e)
				// The matching receive's process may now be unblocked.
				q := int(e.Partner.Process)
				if !c.inWork[q] {
					c.inWork[q] = true
					work = append(work, q)
				}
			case model.Receive:
				// Blocked until the send is delivered; the send's delivery
				// requeues this process.
				if !c.delivered(e.Partner) {
					break inner
				}
				if target, ok := c.sentPartner[e.Partner]; !ok || target != e.ID {
					err = fmt.Errorf("monitor: receive %v claims send %v: %w", e.ID, e.Partner, ErrReceiveMismatch)
					break scan
				}
				delete(c.sentPartner, e.Partner)
				c.deliver(e)
			case model.Sync:
				// Deliverable only when the partner half is also at the
				// front of its process; both halves then go back to back.
				if c.delivered(e.Partner) {
					// The claimed half was already delivered as something
					// else; this pairing can never complete.
					err = fmt.Errorf("monitor: sync %v claims delivered event %v: %w", e.ID, e.Partner, ErrSyncMismatch)
					break scan
				}
				q := int(e.Partner.Process)
				partner, ok := c.front(q)
				if !ok || partner.ID != e.Partner {
					c.syncWaiters[e.Partner] = p
					break inner
				}
				if partner.Kind != model.Sync || partner.Partner != e.ID {
					err = fmt.Errorf("monitor: sync %v <> %v: %w", e.ID, partner, ErrSyncMismatch)
					break scan
				}
				c.deliver(e)
				c.deliver(partner)
				delete(c.syncWaiters, partner.ID) // delivered as the partner half, never scanned as a front
				if !c.inWork[q] {
					c.inWork[q] = true
					work = append(work, q)
				}
			default:
				err = fmt.Errorf("monitor: unknown kind %v for %v", e.Kind, e.ID)
				break scan
			}
		}
	}
	// On early exit, clear the queued marks the loop did not consume.
	for ; head < len(work); head++ {
		c.inWork[work[head]] = false
	}
	c.work = work[:0]
	return err
}

// deliver moves one front event onto the current run and advances the
// process frontier.
func (c *Collector) deliver(e model.Event) {
	p := int(e.ID.Process)
	delete(c.pending[p], e.ID.Index)
	c.held--
	c.next[p]++
	c.run = append(c.run, e)
}

// flush hands the assembled run to the monitor under one lock acquisition,
// appending it to the write-ahead journal first when one is attached. A
// journal failure closes the collector: the in-memory frontier is already
// ahead of the durable log, so no later submission could be recovered
// consistently — fail-stop is the only honest behaviour.
func (c *Collector) flush(tr *obs.Trace) error {
	if len(c.run) == 0 {
		return nil
	}
	if c.journal != nil {
		if tr != nil {
			// Hand the trace to the journal for append/fsync spans; the
			// scope is cleared before delivery so the WAL's own background
			// fsyncs never attach to a finished trace.
			c.spans.Set(tr)
		}
		err := c.journal.AppendRun(c.run)
		if tr != nil {
			c.spans.Set(nil)
		}
		if err != nil {
			c.closed = true
			c.run = c.run[:0]
			return fmt.Errorf("monitor: journal append failed, collector closed: %w", err)
		}
	}
	c.runHist.ObserveValue(int64(len(c.run)))
	var start time.Time
	if c.deliverHist != nil {
		start = time.Now()
	}
	var err error
	if c.pipelined {
		err = c.m.DeliverBatchAsyncTraced(c.run, tr)
	} else {
		err = c.m.DeliverBatchTraced(c.run, tr)
	}
	if c.deliverHist != nil {
		c.deliverHist.ObserveSince(start)
	}
	c.run = c.run[:0]
	return err
}

// Held returns the number of buffered, undelivered events.
func (c *Collector) Held() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// Close marks the stream complete. If events remain buffered the stream was
// inconsistent (e.g. a receive whose send never arrived) and Close returns
// an error naming the stranded events.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	if c.held == 0 {
		return nil
	}
	var stranded []model.EventID
	for p := range c.pending {
		for _, e := range c.pending[p] {
			stranded = append(stranded, e.ID)
		}
	}
	sort.Slice(stranded, func(i, j int) bool {
		if stranded[i].Process != stranded[j].Process {
			return stranded[i].Process < stranded[j].Process
		}
		return stranded[i].Index < stranded[j].Index
	})
	return fmt.Errorf("monitor: %d events stranded at close (first %v)", len(stranded), stranded[0])
}
