package hct

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/vclock"
)

// crNote records a noted (non-merged) cluster receive of one process: the
// paper's "greatest cluster receive within this process at this point".
// Notes are appended in event-index order, so the column is sorted.
type crNote struct {
	index int32
	clock vclock.Clock
}

// Timestamper computes hierarchical cluster timestamps for an event stream
// and answers precedence queries over the stamped events.
//
// It is the pipeline of pipeline.go in its single-writer shape — one lane,
// planning inline on the calling goroutine, no goroutines started — so the
// library, the replay plane and a one-shard daemon stamp through the same
// code. Each event is validated against the delivery-order contract, given
// its cluster epoch by the package's one cluster-receive rule, and stamped
// by the lane, which runs the central Fidge/Mattern computation (whose
// transient state is bounded: per-process frontiers plus in-flight sends)
// and converts each finalized vector into a cluster timestamp. Full
// Fidge/Mattern vectors are retained only for noted cluster receives — the
// algorithm "deletes Fidge/Mattern timestamps that are no longer needed".
//
// Timestamps live in dense per-process columns indexed by event index, with
// projection vectors carved from a shared arena (see store.go); a lookup is
// two array indexes and the steady-state ingest path does not allocate.
//
// Concurrency: a single writer (Observe/Ingest/IngestBatch/ObserveAll,
// externally serialized) may run concurrently with any number of readers —
// Timestamp, Precedes, Concurrent, their *At variants and CaptureWatermark
// take no lock and read only the prefix of the store published by the
// per-process watermarks. The accounting readers take the plan mutex; the
// live Partition is for read-only use between writes.
type Timestamper struct {
	*plane // the pipeline's lock-free read plane
	p      *Pipeline
}

// plane is the lock-free read plane of the pipeline: the per-process
// timestamp columns, the noted cluster-receive columns, and every
// precedence-query method. Writers (one per column) publish through the
// column watermarks; the query methods take no lock and read only published
// prefixes (see store.go for the protocol).
type plane struct {
	numProcs int
	cols     []tsColumn // per process, slot Index-1
	crs      []crColumn // per process, sorted by event index

	// Query-path accounting. Precedence queries run concurrently with each
	// other and with ingest, so these are atomic: qDirect counts queries
	// answered from the target timestamp's own cluster epoch (the
	// greatest-cluster-first fast path), qRouted counts queries that had to
	// route through the noted cluster receives.
	qDirect atomic.Int64
	qRouted atomic.Int64
}

func newPlane(numProcs int) plane {
	return plane{
		numProcs: numProcs,
		cols:     make([]tsColumn, numProcs),
		crs:      make([]crColumn, numProcs),
	}
}

// NewTimestamper returns a timestamper over numProcs processes.
func NewTimestamper(numProcs int, cfg Config) (*Timestamper, error) {
	p, err := NewPipeline(numProcs, cfg, PipelineOptions{Shards: 1, PlanQueue: -1})
	if err != nil {
		return nil, err
	}
	return &Timestamper{plane: &p.plane, p: p}, nil
}

// Result returns the accounting snapshot: event, cluster-receive and merge
// counts, the live partition's shape, and through them the space metric.
func (ts *Timestamper) Result() Result { return ts.p.Result() }

// Events returns the number of events stamped so far.
func (ts *Timestamper) Events() int { return ts.p.Events() }

// ClusterReceives returns the number of noted (non-merged) cluster receives.
func (ts *Timestamper) ClusterReceives() int { return ts.p.ClusterReceives() }

// MergedClusterReceives returns the number of cluster receives that
// triggered a merge and were therefore stamped with a projection.
func (ts *Timestamper) MergedClusterReceives() int { return ts.p.MergedClusterReceives() }

// Partition exposes the live partition (read-only use only).
func (ts *Timestamper) Partition() *cluster.Partition { return ts.p.part }

// MaxClusterSize returns the configured cluster-size bound (the paper's
// maxCS), which is also the projection-vector size of every non-CR
// timestamp under the fixed-size encoding.
func (ts *Timestamper) MaxClusterSize() int { return ts.p.MaxClusterSize() }

// Merges returns the number of cluster merges performed so far.
func (ts *Timestamper) Merges() int { return ts.p.Merges() }

// PendingSends returns the number of delivered sends whose receive has not
// been delivered yet — the transient Fidge/Mattern state retained by the
// central computation.
func (ts *Timestamper) PendingSends() int { return ts.p.PendingSends() }

// StorageInts returns the total vector elements occupied by all stored
// timestamps under the fixed-size-vector encoding (see Result.StorageInts).
func (ts *Timestamper) StorageInts(fixedVector int) int64 {
	return ts.Result().StorageInts(fixedVector)
}

// NumProcs returns the number of processes.
func (ts *plane) NumProcs() int { return ts.numProcs }

// QueryPathCounts returns the precedence query-path tallies: direct is the
// number of Precedes evaluations answered from the target timestamp's own
// cluster epoch (or full vector), routed the number that consulted the
// noted cluster receives. Safe to call concurrently with queries.
func (ts *plane) QueryPathCounts() (direct, routed int64) {
	return ts.qDirect.Load(), ts.qRouted.Load()
}

// Observe ingests the next event in delivery order and returns the
// timestamps finalized by it (two for the completion of a synchronous pair,
// zero for its first half, one otherwise). The returned pointers stay valid
// and immutable for the life of the timestamper. Ingest is the variant for
// callers that discard the results.
func (ts *Timestamper) Observe(e model.Event) ([]*Timestamp, error) {
	if err := ts.p.DispatchOne(e); err != nil {
		return nil, err
	}
	t, ok := ts.Timestamp(e.ID)
	if !ok {
		return nil, nil // first half of a synchronous pair: held for its partner
	}
	if e.Kind == model.Sync {
		first, _ := ts.Timestamp(e.Partner)
		return []*Timestamp{first, t}, nil
	}
	return []*Timestamp{t}, nil
}

// Ingest is Observe without materializing the result slice.
func (ts *Timestamper) Ingest(e model.Event) error {
	return ts.p.DispatchOne(e)
}

// IngestBatch ingests a run of events in delivery order — the batched path
// behind ObserveAll and the replay plane, planning and stamping the whole
// run under one lock acquisition. On error the events before the failing
// one stay delivered, and the error is wrapped as "at <id>: ...".
func (ts *Timestamper) IngestBatch(events []model.Event) error {
	return ts.p.Dispatch(events)
}

// observeAllChunk bounds the run ObserveAll hands the pipeline at once, so
// the planner's reused finalized-event buffer stays small on huge traces.
const observeAllChunk = 1024

// ObserveAll stamps an entire trace and checks that it ended consistently:
// no unpaired synchronous event and no send left unreceived.
func (ts *Timestamper) ObserveAll(tr *model.Trace) error {
	for lo := 0; lo < len(tr.Events); lo += observeAllChunk {
		hi := min(lo+observeAllChunk, len(tr.Events))
		if err := ts.IngestBatch(tr.Events[lo:hi]); err != nil {
			return fmt.Errorf("hct: %w", err)
		}
	}
	return ts.p.checkDrained()
}

// Timestamp returns the stored timestamp of an event. Safe to call
// concurrently with ingestion.
func (ts *plane) Timestamp(id model.EventID) (*Timestamp, bool) {
	t := ts.lookup(id, nil)
	return t, t != nil
}

// TimestampAt is Timestamp evaluated against a captured watermark: events
// published after the cut are reported absent.
func (ts *plane) TimestampAt(id model.EventID, w Watermark) (*Timestamp, bool) {
	t := ts.lookup(id, w)
	return t, t != nil
}

// lookup resolves id against the published store: below the live
// watermarks when w is nil, below the captured cut otherwise.
func (ts *plane) lookup(id model.EventID, w Watermark) *Timestamp {
	p := int(id.Process)
	if p < 0 || p >= ts.numProcs {
		return nil
	}
	if w != nil {
		return ts.cols[p].getAt(id.Index, w[p])
	}
	return ts.cols[p].get(id.Index)
}

// latestCRAtOrBelow returns the greatest published noted cluster receive of
// process p with event index <= bound, or nil.
func (ts *plane) latestCRAtOrBelow(p int32, bound int32) *crNote {
	notes := ts.crs[p].published()
	// Binary search for the first note with index > bound.
	lo, hi := 0, len(notes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if notes[mid].index <= bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return &notes[lo-1]
}

// Precedes reports whether event e happened before event f, using only
// cluster timestamps and the per-process cluster-receive notes. It takes no
// lock and is safe to call concurrently with ingestion: only the published
// prefix of the store is consulted.
//
// The test needs just FM(e)[pe] — which is e's own event index — and
// FM(f)[pe]. If f holds a full vector, or pe lies inside f's cluster epoch,
// FM(f)[pe] is read directly. Otherwise any causal path from e into f's
// cluster must pass through a noted cluster receive on one of the cluster's
// processes, so the test consults, for each member process q, the greatest
// noted cluster receive g of q with g's index <= FM(f)[q]: e precedes f iff
// some such g knows at least e.Index events of pe.
func (ts *plane) Precedes(e, f model.EventID) (bool, error) {
	return ts.precedesAt(e, f, nil)
}

// PrecedesAt is Precedes evaluated against a captured watermark: events at
// or above the cut are reported unknown even if published since, so every
// query of a batch answered under one watermark sees one store state.
func (ts *plane) PrecedesAt(e, f model.EventID, w Watermark) (bool, error) {
	return ts.precedesAt(e, f, w)
}

func (ts *plane) precedesAt(e, f model.EventID, w Watermark) (bool, error) {
	if e == f {
		return false, nil
	}
	te := ts.lookup(e, w)
	if te == nil {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, e)
	}
	tf := ts.lookup(f, w)
	if tf == nil {
		return false, fmt.Errorf("%w: %v", ErrUnknownEvent, f)
	}
	// The two halves of a synchronous pair carry identical vectors but
	// are mutually concurrent.
	if te.Kind == model.Sync && te.Partner == f {
		return false, nil
	}
	eIdx := int32(e.Index)

	if v, ok := tf.Component(e.Process); ok {
		ts.qDirect.Add(1)
		return v >= eIdx, nil
	}

	// pe outside f's cluster epoch: route through noted cluster receives.
	// Every note this can touch has index <= FM(f)[q] for a member q, and
	// is therefore published whenever tf is visible (see store.go), so the
	// watermark does not bound this search.
	ts.qRouted.Add(1)
	c := tf.Cluster
	for k, q := range c.Members {
		g := ts.latestCRAtOrBelow(q, tf.Proj[k])
		if g != nil && g.clock[e.Process] >= eIdx {
			return true, nil
		}
	}
	return false, nil
}

// Concurrent reports whether neither event precedes the other. Like
// Precedes it takes no lock.
func (ts *plane) Concurrent(e, f model.EventID) (bool, error) {
	return ts.concurrentAt(e, f, nil)
}

// ConcurrentAt is Concurrent evaluated against a captured watermark.
func (ts *plane) ConcurrentAt(e, f model.EventID, w Watermark) (bool, error) {
	return ts.concurrentAt(e, f, w)
}

func (ts *plane) concurrentAt(e, f model.EventID, w Watermark) (bool, error) {
	if e == f {
		return false, nil
	}
	ef, err := ts.precedesAt(e, f, w)
	if err != nil {
		return false, err
	}
	if ef {
		return false, nil
	}
	fe, err := ts.precedesAt(f, e, w)
	if err != nil {
		return false, err
	}
	return !fe, nil
}
