package hct

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/strategy"
)

// Config parameterizes a cluster-timestamp run.
type Config struct {
	// MaxClusterSize bounds the size of any cluster (the paper's maxCS,
	// the single tunable parameter of every strategy under comparison).
	MaxClusterSize int
	// Partition is the initial clustering. Nil means one singleton
	// cluster per process (the dynamic strategies' starting point).
	// Static strategies pass a precomputed partition here.
	Partition *cluster.Partition
	// Decider directs merging on cluster receives. Nil means never merge
	// (static clusterings).
	Decider strategy.Decider
}

// Errors returned by the engine.
var (
	ErrUnknownEvent = errors.New("hct: event has no timestamp")
	ErrBadConfig    = errors.New("hct: invalid configuration")
)

// Delivery-order validation errors. Their text is part of the wire
// contract: the daemon relays it verbatim in ERR replies, and clients of
// earlier revisions (whose partial-order store defined these sentinels)
// match on it, so the "poset:" prefix stays.
var (
	ErrProcOutOfRange = errors.New("poset: process id out of range")
	ErrBadIndex       = errors.New("poset: event index does not extend process history")
	ErrUnknownSend    = errors.New("poset: receive refers to unknown send")
	ErrDuplicate      = errors.New("poset: duplicate event")
)

// clustering is the delivery-order-dependent half of the algorithm
// (Section 2.3): the live partition, the strategy's decider, and the tallies
// the space metric of Section 4 needs. Every engine of this package — the
// pipeline's planner (and through it Timestamper), Accountant,
// BatchTimestamper and MigratingTimestamper — classifies events through
// classify/receive, so the cluster-receive rule is written exactly once.
//
// Not safe for concurrent use; the pipeline guards it with its plan mutex.
type clustering struct {
	cfg  Config
	part *cluster.Partition

	events    int // events classified
	crEvents  int // noted (full-vector) cluster receives
	mergedCRs int // cluster receives that triggered a merge
}

// newClustering validates cfg against numProcs and fills in the defaults
// (singleton partition, never-merge decider). It is the only place a Config
// is checked, so every entry point accepts exactly the same configurations.
func newClustering(numProcs int, cfg Config) (clustering, error) {
	if numProcs <= 0 {
		return clustering{}, fmt.Errorf("%w: numProcs=%d", ErrBadConfig, numProcs)
	}
	if cfg.MaxClusterSize < 1 {
		return clustering{}, fmt.Errorf("%w: MaxClusterSize=%d", ErrBadConfig, cfg.MaxClusterSize)
	}
	part := cfg.Partition
	if part == nil {
		part = cluster.NewSingletons(numProcs)
	}
	if part.NumProcs() != numProcs {
		return clustering{}, fmt.Errorf("%w: partition covers %d processes, want %d", ErrBadConfig, part.NumProcs(), numProcs)
	}
	if cfg.Decider == nil {
		cfg.Decider = strategy.NewNever()
	}
	return clustering{cfg: cfg, part: part}, nil
}

// classify makes the cluster decision for one finalized event and returns
// the cluster epoch it is stamped against, or nil for a noted cluster
// receive (which keeps its full Fidge/Mattern vector).
func (c *clustering) classify(e model.Event) *cluster.Info {
	if e.Kind.IsReceive() {
		return c.receive(int32(e.ID.Process), int32(e.Partner.Process))
	}
	c.events++
	return c.part.ClusterOf(int32(e.ID.Process))
}

// receive is the cluster-receive rule of Section 2.3 for a receive-kind
// event on process p whose partner lives on process q. Within one cluster
// it is an ordinary event. Across clusters the strategy decides: a merge
// (only when the merged cluster stays within maxCS) makes the event an
// ordinary event of the merged cluster; otherwise it is noted and nil is
// returned. Live clusters are unique per partition, so the intra-cluster
// test is a pointer comparison.
func (c *clustering) receive(p, q int32) *cluster.Info {
	c.events++
	own := c.part.ClusterOf(p)
	other := c.part.ClusterOf(q)
	if own == other {
		return own
	}
	sizeOK := own.Size()+other.Size() <= c.cfg.MaxClusterSize
	if c.cfg.Decider.OnClusterReceive(own.ID, other.ID, own.Size(), other.Size(), sizeOK) {
		if !sizeOK {
			panic(fmt.Sprintf("hct: decider %s merged past the size bound", c.cfg.Decider.Name()))
		}
		merged := c.part.Merge(own.ID, other.ID)
		c.cfg.Decider.OnMerge(own.ID, other.ID, merged.ID)
		c.mergedCRs++
		return merged
	}
	c.crEvents++
	return nil
}

// result snapshots the tallies and the partition's shape.
func (c *clustering) result() Result {
	return Result{
		Events:          c.events,
		ClusterReceives: c.crEvents,
		MergedReceives:  c.mergedCRs,
		Merges:          c.part.Merges(),
		LiveClusters:    c.part.NumLive(),
		MaxLiveCluster:  c.part.MaxLiveSize(),
		MaxClusterSize:  c.cfg.MaxClusterSize,
	}
}

// Result summarizes a run's space accounting. It is the one accounting
// snapshot of the package: the engines, the monitor and the replay plane
// all report through it.
type Result struct {
	Events          int
	ClusterReceives int // noted (full-vector) cluster receives
	MergedReceives  int // cluster receives that triggered a merge
	Merges          int
	LiveClusters    int
	MaxLiveCluster  int
	MaxClusterSize  int // the configured bound
}

// StorageInts returns the vector elements occupied by all stored
// timestamps under the fixed-size-vector encoding of Section 4: noted
// cluster receives keep a full vector of fixedVector elements, every other
// event a projection of MaxClusterSize elements (see
// Timestamp.StorageInts). The total follows in O(1) from the counts.
func (r Result) StorageInts(fixedVector int) int64 {
	return r.storageInts(fixedVector, r.MaxClusterSize)
}

// storageInts is the closed form of the space metric with an explicit
// cluster-vector size.
func (r Result) storageInts(fixedVector, clusterVector int) int64 {
	cr := int64(r.ClusterReceives)
	rest := int64(r.Events) - cr
	return cr*int64(fixedVector) + rest*int64(clusterVector)
}

// AverageRatio returns the ratio of the average cluster-timestamp size to
// the Fidge/Mattern timestamp size under the fixed-size-vector encoding of
// Section 4 (see StorageInts). A Fidge/Mattern-only tool therefore scores
// exactly 1.0.
func (r Result) AverageRatio(fixedVector int) float64 {
	return r.AverageRatioWithVector(fixedVector, r.MaxClusterSize)
}

// AverageRatioWithVector is AverageRatio with an explicit cluster-vector
// size. It supports the k-means/k-medoid ablations, whose clusters are not
// size-bounded: an implementation would have to allocate cluster vectors of
// the *largest* cluster produced, so their accounting must use that size
// rather than the nominal maxCS.
func (r Result) AverageRatioWithVector(fixedVector, clusterVector int) float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.storageInts(fixedVector, clusterVector)) / (float64(r.Events) * float64(fixedVector))
}
