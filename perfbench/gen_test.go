package main

import (
	"math/rand"
	"testing"

	"repro/internal/monitor"
)

// small generates a workload at test size.
func small(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	in, err := generate(name, seed, 5, 5000, 500)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDigestReproducible(t *testing.T) {
	for _, name := range []string{wIngestRing, wWebMixed, wHistoryQuery} {
		a, b := small(t, name, 7), small(t, name, 7)
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.digest, b.digest)
		}
	}
}

func TestSeedChangesArrivals(t *testing.T) {
	for _, name := range []string{wWebMixed, wHistoryQuery} {
		if a, b := small(t, name, 7), small(t, name, 8); a.digest == b.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same frame stream %s", name, a.digest)
		}
	}
}

// TestDeliveryModelMatchesCollector checks the model the queries rely on:
// after each batch, the events it calls deliverable are exactly as many as
// a real collector has delivered.
func TestDeliveryModelMatchesCollector(t *testing.T) {
	for _, name := range []string{wIngestRing, wWebMixed, wHistoryQuery} {
		in := small(t, name, 3)
		m, err := monitor.New(in.procs, in.newConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := monitor.NewCollector(m)
		for k, b := range in.batches {
			if _, err := c.SubmitBatch(b); err != nil {
				t.Fatalf("%s batch %d: %v", name, k, err)
			}
			if got := m.Accounting().Events; got != in.delivered[k] {
				t.Fatalf("%s batch %d: collector delivered %d, model says %d", name, k, got, in.delivered[k])
			}
			for _, i := range in.byDelivery[:in.delivered[k]] {
				if _, ok := m.Lookup(in.events[i].ID); !ok {
					t.Fatalf("%s batch %d: %v modelled as delivered but unknown to the monitor", name, k, in.events[i].ID)
				}
			}
		}
		m.Close()
	}
}

// TestOracleAgreesWithMonitor runs sampled queries against an in-process
// monitor: the oracle must check some and find no mismatch.
func TestOracleAgreesWithMonitor(t *testing.T) {
	in := small(t, wWebMixed, 5)
	m, err := monitor.New(in.procs, in.newConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := monitor.NewCollector(m)
	for _, b := range in.batches {
		if _, err := c.SubmitBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	q := &querier{in: in, r: rand.New(rand.NewSource(1))}
	for i := 0; i < 200; i++ {
		qs := q.liveBatch(len(in.batches)-1, queryBatch)
		for j, res := range m.QueryBatch(qs) {
			if res.Err != nil {
				t.Fatalf("query %v: %v", qs[j], res.Err)
			}
			if !in.oracle.check(qs[j], res.True) {
				t.Fatalf("query %+v: monitor says %v, Fidge/Mattern disagrees", qs[j], res.True)
			}
		}
	}
	if in.oracle.checked == 0 {
		t.Fatal("oracle checked nothing")
	}
}
