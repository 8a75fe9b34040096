package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wIngestRing   = "ingest-ring"
	wWebMixed     = "web-mixed"
	wHistoryQuery = "history-query"
)

// Generation sizes. They are chosen so that one run stays within a few
// hundred MB per process on a small box: an ingest-ring round passes the
// daemon's default snapshot threshold (1<<20 events) once, web-mixed offers
// a fixed rate far below ingest capacity, and history-query records a trace
// whose recovery takes well under a second.
const (
	ringProcs    = 300
	ringRounds   = 600 // ~1.1M events
	ringBatch    = 1024
	ringMaxCS    = 13
	webClients   = 240
	webBatch     = 1024
	webRate      = 50000 // offered events per second
	webSkew      = 4096  // arrival skew bound, in events
	webThreshold = 10.0
	webMaxCS     = 13
	rpcClients   = 240
	rpcCalls     = 27500 // ~300K events
	rpcBatch     = 1024
	rpcMaxCS     = 13
	queryBatch   = 64
	sampleEvents = 4096 // events whose full Fidge/Mattern clock the oracle keeps
)

// inputs is one workload's generated frame stream plus everything the
// oracle needs to judge the daemon's answers. The daemon only ever sees the
// batches.
type inputs struct {
	name     string
	procs    int
	strategy string // poetd -strategy value
	maxCS    int
	events   []model.Event   // arrival order: the order frames carry them
	batches  [][]model.Event // consecutive slices of events, one EVENTS frame each
	digest   string

	// byDelivery lists arrival indices ordered by the batch after which
	// the collector can deliver them; delivered[k] is how many of them are
	// deliverable once batches 0..k are acknowledged.
	byDelivery []int32
	delivered  []int

	oracle *oracle
}

// newConfig returns the cluster-timestamp configuration poetd builds for
// the workload's strategy flags (deciders are stateful: one per monitor).
func (in *inputs) newConfig() hct.Config {
	if in.strategy == "merge-nth" {
		return hct.Config{MaxClusterSize: in.maxCS, Decider: strategy.NewMergeOnNth(webThreshold)}
	}
	return hct.Config{MaxClusterSize: in.maxCS, Decider: strategy.NewMergeOnFirst()}
}

// generate builds a workload's inputs from its seed. webEvents sizes the
// web-mixed trace (the open loop needs rate × duration events); rounds and
// calls size the other two, so tests can generate small instances.
func generate(name string, seed int64, rounds, webEvents, calls int) (*inputs, error) {
	var in *inputs
	switch name {
	case wIngestRing:
		// Generation order is a linear extension, so sending it as is
		// never makes the collector hold an event.
		tr := workload.Ring(ringProcs, rounds, false)
		in = &inputs{name: name, procs: tr.NumProcs, strategy: "merge-1st", maxCS: ringMaxCS, events: tr.Events}
		in.cut(ringBatch)
		in.oracle = newOracle(tr, seed)
		in.model(tr.Events)
	case wWebMixed:
		// 13 events per request on average (40% of requests consult a db).
		tr := workload.WebTier(webClients, 26, 26, 8, webEvents/13+1, seed)
		in = &inputs{name: name, procs: tr.NumProcs, strategy: "merge-nth", maxCS: webMaxCS, events: skewed(tr.Events, tr.NumProcs, seed)}
		in.cut(webBatch)
		in.oracle = newOracle(tr, seed)
		in.model(tr.Events)
	case wHistoryQuery:
		tr := workload.RPCBusiness(rpcClients, 24, 24, calls, 0.05, seed)
		in = &inputs{name: name, procs: tr.NumProcs, strategy: "merge-1st", maxCS: rpcMaxCS, events: tr.Events}
		in.cut(rpcBatch)
		in.oracle = newOracle(tr, seed)
		in.model(tr.Events)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	in.digest = frameDigest(in.batches)
	return in, nil
}

// skewed returns a seeded, bounded-skew interleave of a generated trace:
// each event is due at its generation position plus a random delay of up to
// webSkew positions, and each process still reports its own events in
// order. A receive therefore often arrives before its send, as it does when
// many instrumented processes share one collector.
func skewed(gen []model.Event, nprocs int, seed int64) []model.Event {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	due := make([]int64, len(gen))
	last := make([]int64, nprocs)
	for i, e := range gen {
		d := int64(i) + r.Int63n(webSkew)
		if p := e.ID.Process; d < last[p] {
			d = last[p]
		}
		due[i] = d
		last[e.ID.Process] = d
	}
	order := make([]int, len(gen))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return due[order[a]] < due[order[b]] })
	out := make([]model.Event, len(gen))
	for i, j := range order {
		out[i] = gen[j]
	}
	return out
}

// cut splits the arrival stream into EVENTS frames of n records.
func (in *inputs) cut(n int) {
	for i := 0; i < len(in.events); i += n {
		j := min(i+n, len(in.events))
		in.batches = append(in.batches, in.events[i:j])
	}
}

// model computes, for every event, the first batch after which the
// collector can deliver it: an event waits for its own arrival, its
// in-process predecessor, and its send (receives) or its partner half
// (syncs). gen is the generation order, a linear extension, so every
// dependency is resolved before it is needed.
func (in *inputs) model(gen []model.Event) {
	batchSize := len(in.batches[0])
	arrival := make(map[model.EventID]int32, len(in.events))
	for i, e := range in.events {
		arrival[e.ID] = int32(i)
	}
	deliv := make(map[model.EventID]int32, len(gen))
	prev := make([]int32, in.procs)
	for i := 0; i < len(gen); i++ {
		e := gen[i]
		d := max(arrival[e.ID]/int32(batchSize), prev[e.ID.Process])
		switch e.Kind {
		case model.Receive:
			d = max(d, deliv[e.Partner])
		case model.Sync:
			// Both halves are generated back to back and delivered together.
			f := gen[i+1]
			d = max(d, arrival[f.ID]/int32(batchSize), prev[f.ID.Process])
			deliv[f.ID] = d
			prev[f.ID.Process] = d
			i++
		}
		deliv[e.ID] = d
		prev[e.ID.Process] = d
	}
	in.byDelivery = make([]int32, len(in.events))
	for i := range in.byDelivery {
		in.byDelivery[i] = int32(i)
	}
	sort.SliceStable(in.byDelivery, func(a, b int) bool {
		return deliv[in.events[in.byDelivery[a]].ID] < deliv[in.events[in.byDelivery[b]].ID]
	})
	in.delivered = make([]int, len(in.batches))
	j := 0
	for k := range in.batches {
		for j < len(in.byDelivery) && int(deliv[in.events[in.byDelivery[j]].ID]) <= k {
			j++
		}
		in.delivered[k] = j
	}
	in.oracleDelivery(deliv)
}

// frameDigest hashes the EVENTS frame stream exactly as the generator will
// send it: batch boundaries and every record field.
func frameDigest(batches [][]model.Event) string {
	h := sha256.New()
	var buf [21]byte
	for _, b := range batches {
		binary.BigEndian.PutUint32(buf[:4], uint32(len(b)))
		h.Write(buf[:4])
		for _, e := range b {
			buf[0] = byte(e.Kind)
			binary.BigEndian.PutUint32(buf[1:], uint32(e.ID.Process))
			binary.BigEndian.PutUint32(buf[5:], uint32(e.ID.Index))
			binary.BigEndian.PutUint32(buf[9:], uint32(e.Partner.Process))
			binary.BigEndian.PutUint32(buf[13:], uint32(e.Partner.Index))
			h.Write(buf[:17])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// oracle holds the Fidge/Mattern clocks of a seeded sample of events,
// computed by internal/fm over the generated trace. A query whose two
// events are both sampled is checked exactly; precedence between two events
// does not depend on how much history follows them, so the same clocks
// judge QUERY@ answers at any cutoff that contains both events.
type oracle struct {
	clocks map[model.EventID]vclock.Clock
	// sampled lists the sampled arrival indices ordered like
	// inputs.byDelivery; sampledDelivered[k] counts those deliverable after
	// batch k.
	sampled          []int32
	sampledDelivered []int
	// byArrival lists the sampled arrival indices in ascending order, for
	// cutoff prefixes.
	byArrival []int32

	checked, mismatched int
}

func newOracle(tr *model.Trace, seed int64) *oracle {
	r := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	want := make(map[model.EventID]bool, sampleEvents)
	for len(want) < min(sampleEvents, len(tr.Events)) {
		want[tr.Events[r.Intn(len(tr.Events))].ID] = true
	}
	o := &oracle{clocks: make(map[model.EventID]vclock.Clock, len(want))}
	ts := fm.NewTimestamper(tr.NumProcs)
	for _, e := range tr.Events {
		out, err := ts.ObserveBorrowed(e)
		if err != nil {
			panic(fmt.Sprintf("generated trace rejected by fm: %v", err)) // generator bug
		}
		for _, b := range out {
			if want[b.Event.ID] {
				o.clocks[b.Event.ID] = b.Clock.Clone()
			}
		}
	}
	return o
}

// oracleDelivery indexes the sampled events by delivery batch and arrival.
func (in *inputs) oracleDelivery(deliv map[model.EventID]int32) {
	o := in.oracle
	for _, i := range in.byDelivery {
		if _, ok := o.clocks[in.events[i].ID]; ok {
			o.sampled = append(o.sampled, i)
		}
	}
	o.sampledDelivered = make([]int, len(in.batches))
	j := 0
	for k := range in.batches {
		for j < len(o.sampled) && int(deliv[in.events[o.sampled[j]].ID]) <= k {
			j++
		}
		o.sampledDelivered[k] = j
	}
	o.byArrival = append([]int32(nil), o.sampled...)
	sort.Slice(o.byArrival, func(a, b int) bool { return o.byArrival[a] < o.byArrival[b] })
}

// check judges one answer if both events are sampled; it reports false only
// for a checked mismatch.
func (o *oracle) check(q monitor.Query, got bool) bool {
	ca, okA := o.clocks[q.A]
	cb, okB := o.clocks[q.B]
	if !okA || !okB {
		return true
	}
	var want bool
	switch {
	case q.A == q.B:
		// The monitor's contract: an event neither precedes nor is
		// concurrent with itself (fm.Concurrent would say concurrent).
		want = false
	case q.Op == monitor.OpPrecedes:
		want = fm.Precedes(q.A, ca, q.B, cb)
	default:
		want = fm.Concurrent(q.A, ca, q.B, cb)
	}
	o.checked++
	if got != want {
		o.mismatched++
		return false
	}
	return true
}

// querier draws query batches over a pool of eligible events. A quarter of
// the queries pair two sampled events, so every batch carries answers the
// oracle checks; the rest range over the whole eligible pool.
type querier struct {
	in *inputs
	r  *rand.Rand
}

// liveBatch draws n queries over the events deliverable once batches
// 0..acked are acknowledged.
func (q *querier) liveBatch(acked, n int) []monitor.Query {
	pool := q.in.byDelivery[:q.in.delivered[acked]]
	sampled := q.in.oracle.sampled[:q.in.oracle.sampledDelivered[acked]]
	return q.draw(n, sampled, func() int32 { return pool[q.r.Intn(len(pool))] })
}

// prefixBatch draws n queries over the first cutoff events in arrival
// order, which history-query's cutoffs make equal to recorded order (see
// cutoffSchedule).
func (q *querier) prefixBatch(cutoff, n int) []monitor.Query {
	byArr := q.in.oracle.byArrival
	k := sort.Search(len(byArr), func(i int) bool { return int(byArr[i]) >= cutoff })
	return q.draw(n, byArr[:k], func() int32 { return int32(q.r.Intn(cutoff)) })
}

func (q *querier) draw(n int, sampled []int32, anyEvent func() int32) []monitor.Query {
	qs := make([]monitor.Query, n)
	for i := range qs {
		var a, b int32
		if len(sampled) >= 2 && q.r.Intn(4) == 0 {
			a, b = sampled[q.r.Intn(len(sampled))], sampled[q.r.Intn(len(sampled))]
		} else {
			a, b = anyEvent(), anyEvent()
		}
		qs[i] = monitor.Query{Op: monitor.QueryOp(q.r.Intn(2)), A: q.in.events[a].ID, B: q.in.events[b].ID}
	}
	return qs
}
