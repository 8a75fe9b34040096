package hct

import (
	"fmt"

	"repro/internal/commgraph"
)

// StaticResult computes the accounting Result of a never-merge configuration
// in closed form, O(edges) in the communication graph instead of O(events)
// in the trace.
//
// When clusters never merge, the replay in Accountant degenerates: every
// receive-kind event whose endpoints lie in different clusters is a noted
// cluster receive, independent of order, and nothing else changes state. The
// noted count is therefore the sum of communication-graph occurrence counts
// over the edges that cross the partition — commgraph counts occurrences at
// receive-kind events exactly as the Accountant observes them (one per async
// receive, one per sync half, so a sync pair contributes two).
//
// cfg.Decider must be nil (the never-merge default): any other decider could
// direct merges, whose effect depends on event order, which the graph has
// discarded. totalEvents is the full event count of the originating trace.
// The partition is read, never mutated, so a cached per-size partition may be
// shared across calls. StaticResult and the replay Accountant are
// property-tested to agree exactly over the whole corpus.
func StaticResult(g *commgraph.Graph, totalEvents int, cfg Config) (Result, error) {
	if cfg.Decider != nil {
		return Result{}, fmt.Errorf("%w: StaticResult requires a never-merge (nil) decider, got %s", ErrBadConfig, cfg.Decider.Name())
	}
	if totalEvents < 0 {
		return Result{}, fmt.Errorf("%w: totalEvents=%d", ErrBadConfig, totalEvents)
	}
	c, err := newClustering(g.NumProcs(), cfg)
	if err != nil {
		return Result{}, err
	}
	var cross int64
	g.ForEachEdge(func(p, q int32, count int64) {
		if c.part.ClusterOf(p) != c.part.ClusterOf(q) {
			cross += count
		}
	})
	c.events, c.crEvents = totalEvents, int(cross)
	return c.result(), nil
}
