package poset

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// chainTrace builds p0 ->msg p1 ->msg p2 with a unary on each process.
func chainTrace(t *testing.T) *model.Trace {
	t.Helper()
	b := model.NewBuilder("chain", 3)
	b.Unary(0)
	s1 := b.Send(0)
	b.Receive(1, s1)
	b.Unary(1)
	s2 := b.Send(1)
	b.Receive(2, s2)
	b.Unary(2)
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// preds returns the delivery positions of the representatives with an edge
// into the representative of e: its immediate predecessors in the stored
// transitive reduction.
func preds(o *Oracle, e model.EventID) []int {
	to := o.rep[o.posOf(e)]
	var out []int
	for from, succ := range o.succ {
		for _, s := range succ {
			if s == to {
				out = append(out, from)
			}
		}
	}
	return out
}

// TestStoreAppendWiresEdges checks the reduction graph the oracle stores:
// each event gets an edge from its predecessor in the process and each
// receive an edge from its send, and nothing else.
func TestStoreAppendWiresEdges(t *testing.T) {
	tr := chainTrace(t)
	o, err := NewOracleFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != tr.NumEvents() {
		t.Fatalf("Len = %d, want %d", o.Len(), tr.NumEvents())
	}
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	pos := func(e model.EventID) int {
		p := o.posOf(e)
		if p < 0 {
			t.Fatalf("%v not stored", e)
		}
		return p
	}
	send, recv := id(0, 2), id(1, 1)
	if got := preds(o, send); len(got) != 1 || got[0] != pos(id(0, 1)) {
		t.Fatalf("preds(send) = %v, want [%d] (previous in process)", got, pos(id(0, 1)))
	}
	if got := preds(o, recv); len(got) != 1 || got[0] != pos(send) {
		t.Fatalf("preds(recv) = %v, want [%d] (the send only)", got, pos(send))
	}
	if got := preds(o, id(1, 2)); len(got) != 1 || got[0] != pos(recv) {
		t.Fatalf("preds(p1:2) = %v, want [%d]", got, pos(recv))
	}
	if got := preds(o, id(0, 1)); len(got) != 0 {
		t.Fatalf("first event of process has predecessors %v", got)
	}
	edges := 0
	for _, succ := range o.succ {
		edges += len(succ)
	}
	// Four process edges (one per event after its process's first) and two
	// message edges.
	if want := 4 + 2; edges != want {
		t.Fatalf("reduction holds %d edges, want %d", edges, want)
	}
}

// TestStoreSyncBackPatch checks that the two halves of a sync pair share
// one graph node whichever half is delivered first, so an edge into or out
// of either half is an edge of the pair.
func TestStoreSyncBackPatch(t *testing.T) {
	b := model.NewBuilder("sync", 2)
	p, q := b.Sync(0, 1)
	u0 := b.Unary(0)
	u1 := b.Unary(1)
	tr := b.Trace()
	o, err := NewOracleFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	pp, qp := o.posOf(p), o.posOf(q)
	if pp < 0 || qp < 0 {
		t.Fatalf("sync halves not stored: %d, %d", pp, qp)
	}
	if o.rep[pp] != o.rep[qp] {
		t.Fatalf("sync halves not contracted: rep %d vs %d", o.rep[pp], o.rep[qp])
	}
	if first := min(pp, qp); o.rep[pp] != first {
		t.Fatalf("pair represented by %d, want the earlier-delivered half %d", o.rep[pp], first)
	}
	for _, e := range []model.EventID{u0, u1} {
		if got := preds(o, e); len(got) != 1 || got[0] != o.rep[pp] {
			t.Fatalf("preds(%v) = %v, want [%d] (the pair)", e, got, o.rep[pp])
		}
	}
	if !o.HappenedBefore(p, u1) || !o.HappenedBefore(q, u0) {
		t.Fatalf("each half must precede the other process's next event")
	}
}

// TestOracleRejectsInvalidTraces pins the delivery-order checks the oracle
// makes while wiring its reduction graph.
func TestOracleRejectsInvalidTraces(t *testing.T) {
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	for _, tc := range []struct {
		name   string
		events []model.Event
		want   error
	}{
		{"process out of range", []model.Event{{ID: id(5, 1), Kind: model.Unary}}, model.ErrProcOutOfRange},
		{"index gap", []model.Event{{ID: id(0, 3), Kind: model.Unary}}, model.ErrBadIndex},
		{"duplicate", []model.Event{{ID: id(0, 1), Kind: model.Unary}, {ID: id(0, 1), Kind: model.Unary}}, model.ErrBadIndex},
		{"receive before send", []model.Event{
			{ID: id(0, 1), Kind: model.Unary},
			{ID: id(1, 1), Kind: model.Receive, Partner: id(0, 9)},
		}, model.ErrUnexpectedOrder},
	} {
		tr := &model.Trace{NumProcs: 2, Events: tc.events}
		if _, err := NewOracleFromTrace(tr); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestOracleChain(t *testing.T) {
	tr := chainTrace(t)
	o, err := NewOracleFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	if !o.HappenedBefore(id(0, 1), id(2, 2)) {
		t.Errorf("u0 must precede tail of chain")
	}
	if o.HappenedBefore(id(2, 2), id(0, 1)) {
		t.Errorf("reverse precedence")
	}
	if o.HappenedBefore(id(0, 1), id(0, 1)) {
		t.Errorf("irreflexive violated")
	}
	if !o.Concurrent(id(0, 1), id(1, 2)) == false {
		// p0:1 precedes nothing on p1? p0:1 is unary before send; p1:2 is
		// unary after the receive, so p0:1 -> p1:2 must NOT hold (the unary
		// on p0 precedes the send which precedes p1:1 and hence p1:2).
		// Actually p0:1 -> p0:2(send) -> p1:1(recv) -> p1:2, so they are
		// ordered.
		if !o.HappenedBefore(id(0, 1), id(1, 2)) {
			t.Errorf("transitive chain broken")
		}
	}
	if o.Len() != tr.NumEvents() {
		t.Errorf("oracle size mismatch")
	}
	// Unknown events are never ordered.
	if o.HappenedBefore(id(0, 99), id(1, 1)) || o.HappenedBefore(id(1, 1), id(0, 99)) {
		t.Errorf("unknown event ordered")
	}
}

func TestOracleSyncContraction(t *testing.T) {
	b := model.NewBuilder("sync", 3)
	u := b.Unary(0)
	p, q := b.Sync(0, 1)
	s := b.Send(1)
	r := b.Receive(2, s)
	tr := b.Trace()
	o, err := NewOracleFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if o.HappenedBefore(p, q) || o.HappenedBefore(q, p) {
		t.Errorf("sync halves must be concurrent")
	}
	if !o.Concurrent(p, q) {
		t.Errorf("Concurrent(p,q) = false")
	}
	if !o.HappenedBefore(u, q) {
		t.Errorf("predecessor of one half must precede the pair")
	}
	if !o.HappenedBefore(p, r) || !o.HappenedBefore(q, r) {
		t.Errorf("pair must precede downstream receive")
	}
	if o.Concurrent(p, p) {
		t.Errorf("Concurrent must be irreflexive")
	}
}

// randomTrace builds a random valid trace: a mix of unaries, messages and
// syncs over n processes.
func randomTrace(r *rand.Rand, n, events int) *model.Trace {
	b := model.NewBuilder("rand", n)
	for b.NumEvents() < events {
		switch r.Intn(3) {
		case 0:
			b.Unary(model.ProcessID(r.Intn(n)))
		case 1:
			from := r.Intn(n)
			to := r.Intn(n)
			if to == from {
				to = (to + 1) % n
			}
			b.Message(model.ProcessID(from), model.ProcessID(to))
		default:
			p := r.Intn(n)
			q := r.Intn(n)
			if q == p {
				q = (q + 1) % n
			}
			b.Sync(model.ProcessID(p), model.ProcessID(q))
		}
	}
	return b.Trace()
}

func TestOracleMatchesTransitivityOnRandomTraces(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		tr := randomTrace(r, 2+r.Intn(5), 60)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random trace invalid: %v", err)
		}
		o, err := NewOracleFromTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		// Transitivity spot-check over random triples.
		for k := 0; k < 200; k++ {
			a := tr.Events[r.Intn(len(tr.Events))].ID
			bb := tr.Events[r.Intn(len(tr.Events))].ID
			c := tr.Events[r.Intn(len(tr.Events))].ID
			if o.HappenedBefore(a, bb) && o.HappenedBefore(bb, c) && !o.HappenedBefore(a, c) {
				t.Fatalf("transitivity violated: %v -> %v -> %v", a, bb, c)
			}
			if o.HappenedBefore(a, bb) && o.HappenedBefore(bb, a) {
				t.Fatalf("antisymmetry violated: %v <-> %v", a, bb)
			}
		}
	}
}
