// Package poset is the ground-truth precedence oracle: happened-before by
// explicit graph search over the transitive reduction of a computation's
// partial order, with no vector clocks. The timestamp algorithms are
// property-tested against it, and poquery uses it to check answers.
package poset

import (
	"fmt"

	"repro/internal/model"
)

// Oracle answers happened-before queries by explicit graph search over the
// transitive reduction. The reduction holds, for each event, at most two
// incoming edges: the previous event in the same process and — for receive
// events — the matching send.
//
// Synchronous pairs are contracted to a single graph node, so the two halves
// of a pair are mutually concurrent while everything ordered with respect to
// one half is identically ordered with respect to the other.
type Oracle struct {
	// pos maps (process, index) to the event's delivery position:
	// pos[p][i-1].
	pos [][]int
	// rep maps a delivery position to its contracted representative (the
	// earlier-delivered half of a sync pair, or itself).
	rep []int
	// succ holds forward edges between representatives.
	succ [][]int
	// scratch for BFS.
	visited []int
	stamp   int
	queue   []int
}

// NewOracleFromTrace builds an oracle over the trace's events in delivery
// order. It rejects a trace whose events do not extend their process
// histories or that delivers a receive before its send.
func NewOracleFromTrace(t *model.Trace) (*Oracle, error) {
	n := len(t.Events)
	o := &Oracle{
		pos:     make([][]int, t.NumProcs),
		rep:     make([]int, n),
		succ:    make([][]int, n),
		visited: make([]int, n),
	}
	addEdge := func(from, to int) {
		f, t := o.rep[from], o.rep[to]
		if f != t {
			o.succ[f] = append(o.succ[f], t)
		}
	}
	for i, e := range t.Events {
		p := int(e.ID.Process)
		if p < 0 || p >= t.NumProcs {
			return nil, fmt.Errorf("poset: building oracle: %w: %v", model.ErrProcOutOfRange, e.ID)
		}
		if int(e.ID.Index) != len(o.pos[p])+1 {
			return nil, fmt.Errorf("poset: building oracle: %w: %v, want index %d", model.ErrBadIndex, e.ID, len(o.pos[p])+1)
		}
		o.pos[p] = append(o.pos[p], i)
		o.rep[i] = i
		switch e.Kind {
		case model.Sync:
			// Contract onto the earlier-delivered half.
			if q := o.posOf(e.Partner); q >= 0 {
				o.rep[i] = o.rep[q]
			}
		case model.Receive:
			s := o.posOf(e.Partner)
			if s < 0 || t.Events[s].Kind != model.Send {
				return nil, fmt.Errorf("poset: building oracle: %w: %v <- %v", model.ErrUnexpectedOrder, e.ID, e.Partner)
			}
			addEdge(s, i)
		}
		if idx := len(o.pos[p]); idx > 1 {
			addEdge(o.pos[p][idx-2], i)
		}
	}
	return o, nil
}

// posOf returns the delivery position of an event, or -1 if the oracle has
// no such event.
func (o *Oracle) posOf(id model.EventID) int {
	p := int(id.Process)
	if p < 0 || p >= len(o.pos) || id.Index < 1 || int(id.Index) > len(o.pos[p]) {
		return -1
	}
	return o.pos[p][id.Index-1]
}

// Len returns the number of events the oracle covers.
func (o *Oracle) Len() int { return len(o.rep) }

// HappenedBefore reports whether e happened before f by graph reachability.
// It returns false for identical events, for the two halves of a sync pair,
// and for events the oracle does not cover.
func (o *Oracle) HappenedBefore(e, f model.EventID) bool {
	ep, fp := o.posOf(e), o.posOf(f)
	if ep < 0 || fp < 0 {
		return false
	}
	return o.reaches(o.rep[ep], o.rep[fp])
}

// Concurrent reports whether neither event happened before the other.
func (o *Oracle) Concurrent(e, f model.EventID) bool {
	if e == f {
		return false
	}
	return !o.HappenedBefore(e, f) && !o.HappenedBefore(f, e)
}

// reaches runs a BFS from src looking for dst, excluding the trivial
// zero-length path.
func (o *Oracle) reaches(src, dst int) bool {
	if src == dst {
		return false
	}
	o.stamp++
	o.queue = o.queue[:0]
	o.queue = append(o.queue, src)
	o.visited[src] = o.stamp
	for len(o.queue) > 0 {
		cur := o.queue[0]
		o.queue = o.queue[1:]
		for _, nxt := range o.succ[cur] {
			if nxt == dst {
				return true
			}
			if o.visited[nxt] != o.stamp {
				o.visited[nxt] = o.stamp
				o.queue = append(o.queue, nxt)
			}
		}
	}
	return false
}
