package hct

import (
	"fmt"

	"repro/internal/model"
)

// Accountant replays a trace's communication structure under a clustering
// configuration and tallies timestamp-size statistics without materializing
// any vectors. The space consumption of the cluster-timestamp algorithm
// depends only on which events end up as noted cluster receives — a function
// of the communication topology and the merge decisions — so the full
// Fidge/Mattern computation can be skipped entirely. The experiment sweeps
// (49 values of maxCS × 4 strategies × the whole corpus) run through this
// path; Timestamper and Accountant are property-tested to agree, and both
// decide through the same cluster-receive rule (clustering.receive).
//
// Accountant is not safe for concurrent use.
type Accountant struct {
	clustering
}

// NewAccountant returns an accountant over numProcs processes.
func NewAccountant(numProcs int, cfg Config) (*Accountant, error) {
	c, err := newClustering(numProcs, cfg)
	if err != nil {
		return nil, err
	}
	return &Accountant{clustering: c}, nil
}

// Observe processes one event, classifying it as a noted cluster receive, a
// merged cluster receive, or an ordinary event.
func (a *Accountant) Observe(e model.Event) {
	if !e.Kind.IsReceive() {
		a.events++
		return
	}
	a.receive(int32(e.ID.Process), int32(e.Partner.Process))
}

// ObservePair processes one receive-kind event in compact form: receiver
// process p, sending partner process q.
func (a *Accountant) ObservePair(p, q int32) {
	a.receive(p, q)
}

// ObserveAll replays the whole trace.
func (a *Accountant) ObserveAll(tr *model.Trace) {
	for _, e := range tr.Events {
		a.Observe(e)
	}
}

// ObserveStream replays a compact receive stream (see model.ReceiveStreamOf)
// extracted from a trace with totalEvents events in all. It is equivalent to
// ObserveAll on the originating trace: non-receive events only contribute to
// the event tally, and the stream preserves delivery order, which is all the
// merge deciders can observe. Each step touches 8 bytes instead of a 24-byte
// model.Event and never branches on the event kind.
func (a *Accountant) ObserveStream(stream []model.ReceivePair, totalEvents int) {
	if totalEvents < len(stream) {
		panic(fmt.Sprintf("hct: ObserveStream with totalEvents=%d < %d stream entries", totalEvents, len(stream)))
	}
	a.events += totalEvents - len(stream)
	for _, rp := range stream {
		a.receive(rp.P, rp.Q)
	}
}

// Result returns the accumulated statistics.
func (a *Accountant) Result() Result { return a.result() }

// ResultOf runs an accountant over the trace with the given configuration
// and returns the summary. The Config's Partition and Decider must be fresh
// (unshared) instances, as the run mutates them.
func ResultOf(tr *model.Trace, cfg Config) (Result, error) {
	a, err := NewAccountant(tr.NumProcs, cfg)
	if err != nil {
		return Result{}, err
	}
	a.ObserveAll(tr)
	return a.Result(), nil
}
