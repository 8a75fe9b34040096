package hct

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/fm"
	"repro/internal/model"
	"repro/internal/strategy"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// pipelineConfig builds the strategy rotation used across the differential
// battery (mirroring columnar_test.go): deciders are stateful, so each
// engine instance gets a fresh one, and static partitions are fresh per
// engine because the engine mutates the partition it is handed.
func pipelineConfig(t *testing.T, tr *model.Trace, variant, maxCS int) Config {
	t.Helper()
	cfg := Config{MaxClusterSize: maxCS}
	switch variant % 3 {
	case 0:
		cfg.Decider = strategy.NewMergeOnFirst()
	case 1:
		cfg.Decider = strategy.NewMergeOnNth(5)
	default:
		groups := strategy.StaticGreedy(commgraph.FromTrace(tr), maxCS)
		part, err := cluster.NewFromGroups(tr.NumProcs, groups)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Partition = part
	}
	return cfg
}

// fmAgreement checks every event's timestamp against the independent
// Fidge/Mattern reference: a noted cluster receive must carry exactly FM(e),
// any other event the projection of FM(e) over its cluster epoch's members.
// It returns a description of the first disagreement, or "".
func fmAgreement(lookup func(model.EventID) (*Timestamp, bool), clocks map[model.EventID]vclock.Clock) string {
	for id, want := range clocks {
		got, ok := lookup(id)
		if !ok {
			return fmt.Sprintf("Timestamp(%v) missing", id)
		}
		if got.Full != nil {
			if !got.Full.Equal(want) {
				return fmt.Sprintf("noted receive %v carries %v, Fidge/Mattern %v", id, got.Full, want)
			}
			continue
		}
		if len(got.Proj) != len(got.Cluster.Members) {
			return fmt.Sprintf("%v projects %d elements over %d members", id, len(got.Proj), len(got.Cluster.Members))
		}
		for k, q := range got.Cluster.Members {
			if got.Proj[k] != want[q] {
				return fmt.Sprintf("%v: Proj[%d] = %d, Fidge/Mattern[%d] = %d", id, k, got.Proj[k], q, want[q])
			}
		}
	}
	return ""
}

// sameTimestamp reports whether two timestamps are identical down to the
// cluster-epoch identity and every vector element.
func sameTimestamp(a, b *Timestamp) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.Partner == b.Partner &&
		((a.Cluster == nil) == (b.Cluster == nil)) &&
		(a.Cluster == nil || (a.Cluster.ID == b.Cluster.ID &&
			vclock.Clock(a.Cluster.Members).Equal(vclock.Clock(b.Cluster.Members)))) &&
		vclock.Clock(a.Proj).Equal(vclock.Clock(b.Proj)) &&
		a.Full.Equal(b.Full)
}

// TestShardedPipelineDifferentialCorpus is the tentpole correctness bar:
// for every corpus computation and every shard count in {1, 2, 4, 8}, the
// sharded pipeline must produce timestamps identical to single-writer
// delivery — same cluster epochs, same projections, same retained full
// vectors — and answer the precedence matrix identically (full matrix on
// small computations, dense samples on large ones). The single-writer
// Timestamper is the pipeline's one-lane shape, so both are also checked
// against the independent Fidge/Mattern reference (fmAgreement).
func TestShardedPipelineDifferentialCorpus(t *testing.T) {
	specs := workload.Corpus()
	shardCounts := []int{1, 2, 4, 8}
	maxCSs := []int{2, 13, 50}
	if testing.Short() {
		shardCounts = []int{1, 4}
		maxCSs = []int{13}
	}
	for i, spec := range specs {
		if testing.Short() && i%5 != 0 {
			continue
		}
		i, spec := i, spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tr := spec.Generate()
			r := rand.New(rand.NewSource(0x5AD + int64(i)))
			stamped, err := fm.StampAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			clocks := make(map[model.EventID]vclock.Clock, len(stamped))
			for _, st := range stamped {
				clocks[st.Event.ID] = st.Clock
			}
			for _, maxCS := range maxCSs {
				// Single-writer reference.
				ref, err := NewTimestamper(tr.NumProcs, pipelineConfig(t, tr, i, maxCS))
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.ObserveAll(tr); err != nil {
					t.Fatalf("maxCS=%d: reference: %v", maxCS, err)
				}
				if bad := fmAgreement(ref.Timestamp, clocks); bad != "" {
					t.Fatalf("maxCS=%d: single-writer vs Fidge/Mattern: %s", maxCS, bad)
				}

				for _, shards := range shardCounts {
					pipe, err := NewPipeline(tr.NumProcs, pipelineConfig(t, tr, i, maxCS), PipelineOptions{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if err := pipe.Dispatch(tr.Events); err != nil {
						pipe.Close()
						t.Fatalf("maxCS=%d shards=%d: Dispatch: %v", maxCS, shards, err)
					}
					pipe.Barrier()
					if bad := fmAgreement(pipe.Timestamp, clocks); bad != "" {
						pipe.Close()
						t.Fatalf("maxCS=%d shards=%d: pipeline vs Fidge/Mattern: %s", maxCS, shards, bad)
					}

					if pipe.Events() != ref.Events() || pipe.ClusterReceives() != ref.ClusterReceives() ||
						pipe.MergedClusterReceives() != ref.MergedClusterReceives() ||
						pipe.Merges() != ref.Merges() {
						pipe.Close()
						t.Fatalf("maxCS=%d shards=%d: accounting (%d,%d,%d,%d) != reference (%d,%d,%d,%d)",
							maxCS, shards,
							pipe.Events(), pipe.ClusterReceives(), pipe.MergedClusterReceives(), pipe.Merges(),
							ref.Events(), ref.ClusterReceives(), ref.MergedClusterReceives(), ref.Merges())
					}

					for _, e := range tr.Events {
						want, ok := ref.Timestamp(e.ID)
						if !ok {
							t.Fatalf("reference lost %v", e.ID)
						}
						got, ok := pipe.Timestamp(e.ID)
						if !ok {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Timestamp(%v) missing after Barrier", maxCS, shards, e.ID)
						}
						if !sameTimestamp(got, want) {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Timestamp(%v) = %v, single-writer %v",
								maxCS, shards, e.ID, got, want)
						}
					}

					check := func(e, f model.EventID) {
						want, err := ref.Precedes(e, f)
						if err != nil {
							t.Fatalf("reference Precedes(%v,%v): %v", e, f, err)
						}
						got, err := pipe.Precedes(e, f)
						if err != nil {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Precedes(%v,%v): %v", maxCS, shards, e, f, err)
						}
						if got != want {
							pipe.Close()
							t.Fatalf("maxCS=%d shards=%d: Precedes(%v,%v) = %v, single-writer %v",
								maxCS, shards, e, f, got, want)
						}
					}
					if len(tr.Events) <= 120 {
						for a := range tr.Events {
							for b := range tr.Events {
								check(tr.Events[a].ID, tr.Events[b].ID)
							}
						}
					} else {
						samples := 2000
						if testing.Short() {
							samples = 400
						}
						for k := 0; k < samples; k++ {
							check(tr.Events[r.Intn(len(tr.Events))].ID, tr.Events[r.Intn(len(tr.Events))].ID)
						}
					}
					pipe.Close()
				}
			}
		})
	}
}

// TestPipelineErrorContract pins the sharded planner to the single-writer
// error behavior: same sentinel errors, same messages, same side effects
// (events before the failure stay delivered; the frontier advances even
// when the fm layer rejects, exactly like store-append-then-stamp).
func TestPipelineErrorContract(t *testing.T) {
	mk := func(shards int) *Pipeline {
		p, err := NewPipeline(4, Config{MaxClusterSize: 2, Decider: strategy.NewMergeOnFirst()},
			PipelineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ev := func(p, i int, k model.Kind, pp, pi int) model.Event {
		e := model.Event{ID: model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}, Kind: k}
		if pp >= 0 {
			e.Partner = model.EventID{Process: model.ProcessID(pp), Index: model.EventIndex(pi)}
		}
		return e
	}
	for _, shards := range []int{1, 2, 4} {
		pipe := mk(shards)

		if err := pipe.DispatchOne(ev(9, 1, model.Unary, -1, 0)); err == nil {
			t.Fatalf("shards=%d: out-of-range process accepted", shards)
		}
		if err := pipe.DispatchOne(ev(0, 2, model.Unary, -1, 0)); err == nil {
			t.Fatalf("shards=%d: index gap accepted", shards)
		}
		if err := pipe.DispatchOne(ev(0, 1, model.Receive, 1, 1)); err == nil {
			t.Fatalf("shards=%d: receive of unknown send accepted", shards)
		}
		if err := pipe.DispatchOne(ev(0, 1, model.Unary, -1, 0)); err != nil {
			t.Fatalf("shards=%d: valid event rejected: %v", shards, err)
		}
		if err := pipe.DispatchOne(ev(0, 1, model.Unary, -1, 0)); err == nil {
			t.Fatalf("shards=%d: duplicate accepted", shards)
		}
		// First sync half is held; an interleaved non-sync event must be
		// rejected, yet — matching the single-writer store-then-stamp order
		// — its frontier slot is consumed.
		if err := pipe.DispatchOne(ev(1, 1, model.Sync, 2, 1)); err != nil {
			t.Fatalf("shards=%d: first sync half rejected: %v", shards, err)
		}
		if err := pipe.DispatchOne(ev(3, 1, model.Unary, -1, 0)); err == nil {
			t.Fatalf("shards=%d: interleaved event inside sync pair accepted", shards)
		}
		if err := pipe.DispatchOne(ev(3, 1, model.Unary, -1, 0)); err == nil {
			t.Fatalf("shards=%d: frontier must have advanced for the interleaved event", shards)
		}
		if err := pipe.DispatchOne(ev(2, 1, model.Sync, 1, 1)); err != nil {
			t.Fatalf("shards=%d: completing sync half rejected: %v", shards, err)
		}
		pipe.Barrier()
		if _, ok := pipe.Timestamp(model.EventID{Process: 1, Index: 1}); !ok {
			t.Fatalf("shards=%d: completed sync pair not published", shards)
		}
		if _, ok := pipe.Timestamp(model.EventID{Process: 3, Index: 1}); ok {
			t.Fatalf("shards=%d: rejected event has a timestamp", shards)
		}
		pipe.Close()
		if err := pipe.DispatchOne(ev(0, 2, model.Unary, -1, 0)); err != ErrPipelineClosed {
			t.Fatalf("shards=%d: Dispatch after Close = %v", shards, err)
		}
	}
}

// TestRejectedSendStaysUnreceivable pins the clock-layer rejection of a
// send: a send interleaved inside a synchronous pair consumes its frontier
// slot but never becomes an in-flight send, so its receive is refused
// instead of waiting for a clock that is never computed.
func TestRejectedSendStaysUnreceivable(t *testing.T) {
	id := func(p, i int) model.EventID {
		return model.EventID{Process: model.ProcessID(p), Index: model.EventIndex(i)}
	}
	for _, shards := range []int{1, 3} {
		pipe, err := NewPipeline(3, Config{MaxClusterSize: 2}, PipelineOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.DispatchOne(model.Event{ID: id(0, 1), Kind: model.Sync, Partner: id(1, 1)}); err != nil {
			t.Fatalf("shards=%d: first sync half: %v", shards, err)
		}
		if err := pipe.DispatchOne(model.Event{ID: id(2, 1), Kind: model.Send, Partner: id(0, 2)}); !errors.Is(err, fm.ErrSyncInterleaved) {
			t.Fatalf("shards=%d: interleaved send: err = %v, want ErrSyncInterleaved", shards, err)
		}
		if err := pipe.DispatchOne(model.Event{ID: id(1, 1), Kind: model.Sync, Partner: id(0, 1)}); err != nil {
			t.Fatalf("shards=%d: second sync half: %v", shards, err)
		}
		if n := pipe.PendingSends(); n != 0 {
			t.Fatalf("shards=%d: rejected send left %d sends in flight", shards, n)
		}
		if err := pipe.DispatchOne(model.Event{ID: id(0, 2), Kind: model.Receive, Partner: id(2, 1)}); !errors.Is(err, ErrUnknownSend) {
			t.Fatalf("shards=%d: receive of rejected send: err = %v, want ErrUnknownSend", shards, err)
		}
		pipe.Barrier()
		pipe.Close()
	}
}
