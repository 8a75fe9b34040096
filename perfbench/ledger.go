package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/wal"
)

// The traced run's layer ledger. It drives the same generated batches
// through each layer's public functions in this process, timing the calls
// from here, so each layer's self time is measured on identical input:
//
//	server     monitor.NewServer over loopback, v2 frames from ClientV2
//	collector  the server's Collector; its runs are seen through the
//	           RunJournal seam (tapJournal)
//	wal        wal.Log Append (via the tap), Open and Replay
//	pipeline   Monitor.DeliverBatchAsync + IngestBarrier on the captured runs
//	queries    Monitor.QueryBatch, idle and beside a producer
//	replay     replay.Open, Store.ViewAt, View.QueryBatch
//
// server.unexplained_s is what the end-to-end producer time leaves after the
// collector, wal and pipeline self times: decode, TCP, tenant routing, the
// submit queue and the ACK writer, less whatever the pipelined stages
// overlap.

// walOptions are poetd's default WAL options (-fsync batch,
// -snapshot-every 1<<20).
func walOptions(procs int) wal.Options {
	return wal.Options{NumProcs: procs, Sync: wal.SyncBatch, SnapshotEvery: 1 << 20}
}

// tapJournal is the RunJournal the ledger hands the server: it times each
// WAL append and keeps a copy of every delivered run.
type tapJournal struct {
	log      *wal.Log
	appendNs time.Duration
	runs     [][]model.Event
	events   int
}

func (t *tapJournal) AppendRun(events []model.Event) error {
	start := time.Now()
	err := t.log.AppendRun(events)
	t.appendNs += time.Since(start)
	t.runs = append(t.runs, append([]model.Event(nil), events...))
	t.events += len(events)
	return err
}

func (t *tapJournal) Stats() string { return t.log.Stats() }

// serverPass ingests every batch through an in-process server in a closed
// loop. With traced set it wires the tap
// and the telemetry histograms the collector self time is derived from.
type serverPass struct {
	wall     time.Duration // first frame sent to last event stamped
	producer time.Duration // first frame sent to last ACK
	tap      *tapJournal
	tel      *obs.Telemetry
	walCount *metrics.WALCounters
	walStats metrics.WALSnapshot
	dir      string
	ackMs    []float64
}

func runServerPass(in *inputs, dir string, traced bool) (*serverPass, error) {
	m, err := monitor.NewWithOptions(in.procs, in.newConfig(), hct.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	p := &serverPass{dir: dir}
	opts := walOptions(in.procs)
	cfg := monitor.ServerConfig{}
	if traced {
		p.tel = obs.NewTelemetry(obs.NewRegistry())
		p.tel.Traces, p.tel.Sampler = nil, nil // histograms only: no span traces
		p.walCount = &metrics.WALCounters{}
		opts.Counters, opts.FsyncTimer, opts.SnapshotTimer = p.walCount, p.tel.WALFsync, p.tel.WALSnapshot
		cfg.Obs = p.tel
	}
	log, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if traced {
		p.tap = &tapJournal{log: log}
		cfg.Journal = p.tap
	} else {
		cfg.Journal = log
	}
	srv := monitor.NewServer(m, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Close()
		return nil, err
	}
	c, err := monitor.DialV2(addr.String())
	if err != nil {
		srv.Close()
		log.Close()
		return nil, err
	}
	start := time.Now()
	for i, b := range in.batches {
		t := time.Now()
		if err := c.ReportBatch(b); err != nil {
			err = fmt.Errorf("ledger batch %d: %w", i, err)
			c.Close()
			srv.Close()
			log.Close()
			return nil, err
		}
		p.ackMs = append(p.ackMs, ms(time.Since(t)))
	}
	p.producer = time.Since(start)
	// Acknowledged is not yet stamped: the pipelined collector acknowledges
	// once a run is dispatched. The ledger's end-to-end time runs until the
	// last acknowledged event is stamped, the span the layers' self times
	// add up to.
	m.IngestBarrier()
	p.wall = time.Since(start)
	c.Close()
	srv.Close()
	if err := log.Close(); err != nil {
		return nil, err
	}
	if p.walCount != nil {
		p.walStats = p.walCount.Snapshot()
	}
	return p, nil
}

// ledger runs the traced run's per-layer measurements and returns them by
// metric name.
func ledger(in *inputs, work string, seed int64, ref reference, budget time.Duration) (map[string]float64, []string, error) {
	out := make(map[string]float64)
	var report []string
	n := float64(len(in.events))
	o := in.oracle

	// Untraced and traced passes of the same stream, in the order plain,
	// traced, traced, plain so that drift over the four cancels: their
	// difference is the tracing overhead. The last traced pass feeds the
	// rest of the ledger.
	var plainS, tracedS float64
	var tp *serverPass
	for i, traced := range []bool{false, true, true, false} {
		p, err := runServerPass(in, filepath.Join(work, fmt.Sprintf("ledger-%d", i)), traced)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			tracedS += p.wall.Seconds()
			tp = p
		} else {
			plainS += p.wall.Seconds()
		}
		freeMemory()
	}
	out["trace.overhead_frac"] = tracedS/plainS - 1
	out["server.e2e_s"] = tp.wall.Seconds()

	ingest := tp.tel.IngestBatch.Summary()
	deliver := tp.tel.DeliverBatch.Summary()
	walS := tp.tap.appendNs.Seconds()
	collectorS := time.Duration(ingest.Sum-deliver.Sum).Seconds() - walS
	out["collector.submit_s"] = collectorS
	out["collector.held_max"] = float64(ref.heldMax)
	out["collector.runs"] = float64(len(tp.tap.runs))
	out["collector.run_events_mean"] = float64(tp.tap.events) / float64(len(tp.tap.runs))
	if tp.tap.events != len(in.events) || len(tp.tap.runs) != ref.runs {
		return nil, nil, fmt.Errorf("ledger: journal saw %d events in %d runs, reference %d in %d", tp.tap.events, len(tp.tap.runs), len(in.events), ref.runs)
	}

	out["wal.append_s"] = walS
	out["wal.fsyncs"] = float64(tp.walStats.Fsyncs)
	out["wal.fsync_s"] = time.Duration(tp.tel.WALFsync.Summary().Sum).Seconds()
	out["wal.snapshots"] = float64(tp.walStats.Snapshots)
	out["wal.snapshot_s"] = time.Duration(tp.tel.WALSnapshot.Summary().Sum).Seconds()
	disk, err := dirBytes(tp.dir)
	if err != nil {
		return nil, nil, err
	}
	out["wal.bytes_per_event"] = float64(disk) / n

	// Recovery: reopen the traced pass's WAL and replay it into a monitor
	// with the daemon's options, as poetd does at startup. The recovered
	// monitor then answers the idle query batches.
	start := time.Now()
	log, err := wal.Open(tp.dir, walOptions(in.procs))
	if err != nil {
		return nil, nil, err
	}
	rm, err := monitor.NewWithOptions(in.procs, in.newConfig(), hct.PipelineOptions{})
	if err != nil {
		return nil, nil, err
	}
	if err := log.Replay(rm.DeliverBatch); err != nil {
		return nil, nil, fmt.Errorf("ledger recovery: %w", err)
	}
	out["wal.recover_s"] = time.Since(start).Seconds()
	out["wal.recovered_events"] = float64(log.RecoveredEvents())
	log.Close()

	q := &querier{in: in, r: rand.New(rand.NewSource(seed))}
	last := len(in.batches) - 1
	var idle []float64
	checkErr := func(qs []monitor.Query, res []monitor.QueryResult) error {
		for i, a := range res {
			if a.Err != nil {
				return fmt.Errorf("ledger query %v %v: %v", qs[i].A, qs[i].B, a.Err)
			}
			if !o.check(qs[i], a.True) {
				return fmt.Errorf("ledger query %v %v: answer disagrees with Fidge/Mattern", qs[i].A, qs[i].B)
			}
		}
		return nil
	}
	for i := 0; i < 2000; i++ {
		qs := q.liveBatch(last, queryBatch)
		t := time.Now()
		res := rm.QueryBatch(qs)
		idle = append(idle, us(time.Since(t)))
		if err := checkErr(qs, res); err != nil {
			return nil, nil, err
		}
	}
	out["queries.batch_p50_us"] = quantile(idle, 0.5)
	out["queries.batch_p99_us"] = quantile(idle, 0.99)
	direct, routed := rm.QueryPathCounts()
	out["queries.direct_frac"] = float64(direct) / float64(max(1, direct+routed))
	rm.Close()
	freeMemory()

	// Pipeline alone on the captured runs, with the daemon's options.
	pm, err := monitor.NewWithOptions(in.procs, in.newConfig(), hct.PipelineOptions{})
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := readCPU()
	var deliverS time.Duration
	for _, run := range tp.tap.runs {
		t := time.Now()
		if err := pm.DeliverBatchAsync(run); err != nil {
			return nil, nil, fmt.Errorf("ledger pipeline: %w", err)
		}
		deliverS += time.Since(t)
	}
	t := time.Now()
	pm.IngestBarrier()
	barrierS := time.Since(t)
	cpu1 := readCPU()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	acc := pm.Accounting()
	st := pm.Stats(metrics.DefaultFixedVector)
	if st.Events != ref.stats.Events || st.ClusterReceives != ref.stats.ClusterReceives || st.StorageInts != ref.stats.StorageInts {
		return nil, nil, fmt.Errorf("ledger pipeline stats %+v differ from reference %+v", st, ref.stats)
	}
	out["pipeline.deliver_s"] = deliverS.Seconds()
	out["pipeline.barrier_s"] = barrierS.Seconds()
	out["pipeline.events_per_s"] = n / (deliverS + barrierS).Seconds()
	out["pipeline.cross_shard_waits"] = float64(pm.Pipeline().CrossShardWaits())
	out["pipeline.cluster_receives"] = float64(acc.ClusterReceives)
	out["pipeline.merges"] = float64(acc.Merges)
	out["pipeline.storage_ints_per_event"] = float64(st.StorageInts) / n
	out["pipeline.heap_bytes_per_event"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	out["pipeline.alloc_bytes_per_event"] = float64(alloc) / n
	out["pipeline.gc_cpu_frac"] = (cpu1.gc - cpu0.gc) / max(1e-9, cpu1.total-cpu0.total)
	runtime.KeepAlive(pm)
	pm.Close()
	freeMemory()

	// Queries beside a concurrent producer: the captured runs stream into a
	// fresh monitor at a fixed rate, well below the pipeline's capacity, while
	// this goroutine issues IngestBarrier + QueryBatch over events of runs
	// already dispatched, as the server's query path does.
	bm, err := monitor.NewWithOptions(in.procs, in.newConfig(), hct.PipelineOptions{})
	if err != nil {
		return nil, nil, err
	}
	var flat []model.Event
	var ends []int
	for _, run := range tp.tap.runs {
		flat = append(flat, run...)
		ends = append(ends, len(flat))
	}
	var dispatched atomic.Int64
	dispatched.Store(-1)
	var producing atomic.Bool
	producing.Store(true)
	var wg sync.WaitGroup
	var prodErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer producing.Store(false)
		start, sent := time.Now(), 0
		for i, run := range tp.tap.runs {
			time.Sleep(time.Until(start.Add(time.Duration(float64(sent) / barrierRate * float64(time.Second)))))
			sent += len(run)
			if err := bm.DeliverBatchAsync(run); err != nil {
				prodErr = err
				return
			}
			dispatched.Store(int64(i))
		}
	}()
	var busy []float64
	qr := rand.New(rand.NewSource(seed ^ 0xba))
	for producing.Load() {
		k := dispatched.Load()
		if k < 0 {
			runtime.Gosched()
			continue
		}
		pool := flat[:ends[k]]
		qs := make([]monitor.Query, queryBatch)
		for i := range qs {
			qs[i] = monitor.Query{Op: monitor.QueryOp(qr.Intn(2)), A: pool[qr.Intn(len(pool))].ID, B: pool[qr.Intn(len(pool))].ID}
		}
		t := time.Now()
		bm.IngestBarrier()
		res := bm.QueryBatch(qs)
		busy = append(busy, us(time.Since(t)))
		if err := checkErr(qs, res); err != nil {
			wg.Wait()
			return nil, nil, err
		}
	}
	wg.Wait()
	bm.Close()
	if prodErr != nil {
		return nil, nil, prodErr
	}
	out["queries.barrier_p50_us"] = quantile(busy, 0.5)
	out["queries.barrier_p99_us"] = quantile(busy, 0.99)
	report = append(report, fmt.Sprintf("ledger: queries beside a producer: %d batches", len(busy)))
	freeMemory()

	// Replay plane. Every workload opens it, as poetd does at startup; only
	// history-query sends QUERY@, so only it materializes views.
	tel := obs.NewTelemetry(obs.NewRegistry())
	replayDir := tp.dir
	if in.name != wHistoryQuery {
		// The ingest workloads start poetd on an empty WAL root, so the
		// replay plane it opens has no history.
		replayDir = filepath.Join(work, "ledger-empty")
		if err := os.MkdirAll(replayDir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	start = time.Now()
	store, err := replay.Open(replayDir, replay.Options{NumProcs: in.procs, NewConfig: in.newConfig, Obs: tel})
	if err != nil {
		return nil, nil, err
	}
	out["replay.open_s"] = time.Since(start).Seconds()
	var atUs []float64
	s := newCutoffSchedule(in, seed)
	if in.name == wHistoryQuery {
		t0 := time.Now()
		cutoff := s.warm
		for i := 0; i == 0 || time.Since(t0) < budget; i++ {
			if i > 0 {
				cutoff, _ = s.next(float64(time.Since(t0)) / float64(budget))
			} else {
				s.note(cutoff)
			}
			qs := q.prefixBatch(cutoff, queryBatch)
			t := time.Now()
			v, err := store.ViewAt(uint64(cutoff))
			if err != nil {
				return nil, nil, err
			}
			res := v.QueryBatch(qs)
			atUs = append(atUs, us(time.Since(t)))
			if err := checkErr(qs, res); err != nil {
				return nil, nil, err
			}
		}
	}
	store.Close()
	mat := tel.ReplayMaterialize.Summary()
	if int(mat.Count) != s.misses {
		return nil, nil, fmt.Errorf("ledger replay: %d materializations, schedule expected %d", mat.Count, s.misses)
	}
	out["replay.view_misses"] = float64(mat.Count)
	out["replay.materialize_s"] = time.Duration(mat.Sum).Seconds()
	out["replay.restamped_events"] = float64(s.restamped)
	out["replay.query_p50_us"] = quantile(atUs, 0.5)

	selfS := collectorS + walS + (deliverS + barrierS).Seconds()
	out["server.unexplained_s"] = tp.wall.Seconds() - selfS
	report = append(report,
		fmt.Sprintf("ledger: end-to-end ingest time %.4fs, first frame to last event stamped (last ACK at %.4fs; untraced passes %.4fs on average)", tp.wall.Seconds(), tp.producer.Seconds(), plainS/2),
		fmt.Sprintf("ledger:   collector self  %.4fs  %5.1f%%", collectorS, 100*collectorS/tp.wall.Seconds()),
		fmt.Sprintf("ledger:   wal append      %.4fs  %5.1f%%", walS, 100*walS/tp.wall.Seconds()),
		fmt.Sprintf("ledger:   pipeline        %.4fs  %5.1f%%  (deliver %.4fs + barrier %.4fs, measured alone)", (deliverS+barrierS).Seconds(), 100*(deliverS+barrierS).Seconds()/tp.wall.Seconds(), deliverS.Seconds(), barrierS.Seconds()),
		fmt.Sprintf("ledger:   sum of layers   %.4fs  %5.1f%%", selfS, 100*selfS/tp.wall.Seconds()),
		fmt.Sprintf("ledger:   server.unexplained_s %.4fs  %5.1f%%  (decode, TCP, routing, submit queue, ACK writer; negative when the pipelined stages overlap)", out["server.unexplained_s"], 100*out["server.unexplained_s"]/tp.wall.Seconds()),
	)
	return out, report, nil
}

// barrierRate is the producer's pace, in events per second, while the
// ledger times queries beside it.
const barrierRate = 400000

type cpuTimes struct{ gc, total float64 }

// readCPU samples the runtime's estimate of GC and total CPU seconds.
func readCPU() cpuTimes {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// freeMemory returns the previous stage's heap to the OS before the next
// stage, so stages do not stack their footprints on a small box.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
