// Command perfbench is the repository's end-to-end benchmark for poetd. It
// launches the poetd binary built from the tree, drives it over TCP with
// protocol v2 (monitor.DialV2/ClientV2, at most two connections), checks
// every answer against Fidge/Mattern clocks and an in-process reference
// collector, and prints the metrics BENCHMARK.json names. With -trace 1 it
// additionally runs the per-layer ledger (ledger.go) and reports per-layer
// metrics instead.
//
// Run it from the repository root through the launcher, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload ingest-ring --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything before it is a
// human-readable report. Any oracle, ACK-count, held or STATS mismatch makes
// the run exit non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value, as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// crossCheckFamilies are the daemon's own instruments printed beside the
// benchmark's outside timings in traced runs.
var crossCheckFamilies = []string{
	"poetd_planner_busy_seconds_total",
	"poetd_wal_fsyncs_total",
	"poetd_decode_frame_seconds",
	"poetd_replay_materialize_seconds",
	"poetd_greatest_cluster_first_hit_rate",
}

func main() {
	var (
		name    = flag.String("workload", "", "ingest-ring | web-mixed | history-query")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer ledger metrics")
		poetd   = flag.String("poetd", "", "poetd binary built from the tree")
		workDir = flag.String("work", "", "scratch directory (removed at exit)")
	)
	flag.Parse()
	if *poetd == "" || *workDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -poetd and -work are required (use run.sh)")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(*workDir)
	res, err := benchmark(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *poetd, *workDir)
	if err != nil {
		os.RemoveAll(*workDir)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(*workDir)
		os.Exit(1)
	}
}

func benchmark(name string, seed int64, seconds time.Duration, traced bool, poetd, work string) (*result, error) {
	// A traced run spends about half its time on the daemon pass (for the
	// /metrics cross-check) and the rest on the in-process ledger.
	daemonTime := seconds
	if traced {
		daemonTime = seconds / 2
	}
	webEvents := int(webRate * daemonTime.Seconds())
	in, err := generate(name, seed, ringRounds, webEvents, rpcCalls)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d events in %d frames, frame digest %s\n", name, seed, len(in.events), len(in.batches), in.digest)
	ref, err := runReference(in)
	if err != nil {
		return nil, err
	}
	freeMemory()
	r := &run{in: in, seed: seed, seconds: daemonTime, poetd: poetd, work: work, http: traced, ref: ref, viewOps: map[string]int{}}
	defer r.stopAll()
	switch name {
	case wIngestRing:
		err = r.ingestRing()
	case wWebMixed:
		err = r.webMixed()
	case wHistoryQuery:
		err = r.historyQuery()
	}
	if err != nil {
		return nil, err
	}
	freeMemory()
	r.printEnv(name, seed)
	r.printReport()

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if traced {
		layers, report, err := ledger(in, work, seed, ref, seconds/4)
		if err != nil {
			r.fail("%v", err)
		} else {
			for _, l := range report {
				fmt.Println(l)
			}
			for _, def := range perLayer {
				res.Metrics[def.name] = metric{Value: layers[def.name], Unit: def.unit}
				fmt.Printf("layer %-34s %14.6g %s\n", def.name, layers[def.name], def.unit)
			}
		}
		r.printCrossCheck()
	} else {
		for k, v := range r.endToEnd() {
			res.Metrics[k] = v
		}
	}
	if o := in.oracle; o.checked == 0 {
		r.fail("oracle checked no answers")
	} else {
		fmt.Printf("oracle: %d answers checked against Fidge/Mattern, %d mismatched\n", o.checked, o.mismatched)
	}
	for _, w := range r.wrong {
		fmt.Println("INCORRECT:", w)
	}
	res.Correct = len(r.wrong) == 0
	return res, nil
}

// perLayerDef names one per-layer metric and its unit.
type perLayerDef struct{ name, unit string }

// perLayer is the traced run's metric list, in BENCHMARK.json's order.
var perLayer = []perLayerDef{
	{"server.e2e_s", "s"},
	{"server.unexplained_s", "s"},
	{"collector.submit_s", "s"},
	{"collector.held_max", "count"},
	{"collector.runs", "count"},
	{"collector.run_events_mean", "count"},
	{"wal.append_s", "s"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_s", "s"},
	{"wal.snapshots", "count"},
	{"wal.snapshot_s", "s"},
	{"wal.bytes_per_event", "B/event"},
	{"wal.recover_s", "s"},
	{"wal.recovered_events", "count"},
	{"pipeline.deliver_s", "s"},
	{"pipeline.barrier_s", "s"},
	{"pipeline.events_per_s", "1/s"},
	{"pipeline.cross_shard_waits", "count"},
	{"pipeline.cluster_receives", "count"},
	{"pipeline.merges", "count"},
	{"pipeline.storage_ints_per_event", "ints/event"},
	{"pipeline.heap_bytes_per_event", "B/event"},
	{"pipeline.alloc_bytes_per_event", "B/event"},
	{"pipeline.gc_cpu_frac", "frac"},
	{"queries.batch_p50_us", "us"},
	{"queries.batch_p99_us", "us"},
	{"queries.barrier_p50_us", "us"},
	{"queries.barrier_p99_us", "us"},
	{"queries.direct_frac", "frac"},
	{"replay.open_s", "s"},
	{"replay.view_misses", "count"},
	{"replay.materialize_s", "s"},
	{"replay.restamped_events", "count"},
	{"replay.query_p50_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// endToEnd computes the gated end-to-end metrics. Every workload reports
// each of them: ingest-ring's queries come from its idle-daemon probe, and
// history-query's ingest figures from its recording phase.
func (r *run) endToEnd() map[string]metric {
	return map[string]metric{
		"ingest_events_per_s":      {median(r.ingestRates()), "1/s"},
		"ack_p50_ms":               {median(r.ackP50s()), "ms"},
		"query_p50_ms":             {median(r.queryP50s()), "ms"},
		"queries_per_s":            {median(r.queryRates()), "1/s"},
		"rss_peak_bytes_per_event": {median(r.rssPerEvent), "B/event"},
		"disk_bytes_per_event":     {median(r.diskPerEvent), "B/event"},
		"setup_s":                  {median(r.setupS), "s"},
	}
}

func (r *run) ingestRates() []float64 {
	return r.perWindow(func(w *window) (float64, bool) { return float64(w.events) / w.ingest.Seconds(), w.events > 0 })
}

func (r *run) ackP50s() []float64 {
	return r.perWindow(func(w *window) (float64, bool) { return median(w.ackMs), len(w.ackMs) > 0 })
}

func (r *run) queryP50s() []float64 {
	return r.perWindow(func(w *window) (float64, bool) { return median(w.queryMs), len(w.queryMs) > 0 })
}

func (r *run) queryRates() []float64 {
	return r.perWindow(func(w *window) (float64, bool) { return float64(w.queries) / w.querying.Seconds(), w.queries > 0 })
}

// printReport prints every end-to-end metric with its unit and sample
// count, the tails included.
func (r *run) printReport() {
	line := func(name string, v float64, unit string, n int) {
		fmt.Printf("metric %-26s %14.6g %-8s n=%d\n", name, v, unit, n)
	}
	fmt.Printf("windows: %d; gated rates and p50s are medians of per-window values, tails are over all samples\n", len(r.windows))
	line("ingest_events_per_s", median(r.ingestRates()), "1/s", len(r.ingestRates()))
	line("ack_p50_ms", median(r.ackP50s()), "ms", len(r.ackMs))
	line("ack_p99_ms", quantile(r.ackMs, 0.99), "ms", len(r.ackMs))
	line("query_p50_ms", median(r.queryP50s()), "ms", len(r.queryMs))
	line("query_p99_ms", quantile(r.queryMs, 0.99), "ms", len(r.queryMs))
	line("query_at_p50_ms", quantile(r.queryAtMs, 0.5), "ms", len(r.queryAtMs))
	line("query_at_p99_ms", quantile(r.queryAtMs, 0.99), "ms", len(r.queryAtMs))
	line("query_at_p999_ms", quantile(r.queryAtMs, 0.999), "ms", len(r.queryAtMs))
	line("queries_per_s", median(r.queryRates()), "1/s", r.queries)
	line("rss_peak_bytes_per_event", median(r.rssPerEvent), "B/event", len(r.rssPerEvent))
	line("disk_bytes_per_event", median(r.diskPerEvent), "B/event", len(r.diskPerEvent))
	line("setup_s", median(r.setupS), "s", len(r.setupS))
	if len(r.genLateMs) > 0 {
		fmt.Printf("open-loop: generator lateness p99 %.4f ms max %.4f ms; blocked behind the previous frame p99 %.4f ms max %.4f ms (n=%d)\n",
			quantile(r.genLateMs, 0.99), maxOf(r.genLateMs), quantile(r.blockedMs, 0.99), maxOf(r.blockedMs), len(r.genLateMs))
	}
	if len(r.viewOps) > 0 {
		fmt.Printf("history: QUERY@ mix hit=%d forward=%d rewind=%d\n", r.viewOps["hit"], r.viewOps["forward"], r.viewOps["rewind"])
		fmt.Printf("history: query-serving daemon VmHWM %.6g B/event (not gated; rss_peak_bytes_per_event is over the recordings)\n", r.queryDaemonRSS)
	}
	fmt.Printf("attempted %d operations, %d failed\n", r.attempted, r.failed)
}

// printCrossCheck prints the daemon's own instruments, scraped from
// /metrics at the end of the traced run's daemon pass, beside the
// benchmark's outside timings.
func (r *run) printCrossCheck() {
	s := r.scraped
	fmt.Printf("crosscheck: poetd_planner_busy_seconds_total %.4f s; bench producer wall of the last ingest pass %.4f s\n",
		s["poetd_planner_busy_seconds_total"], r.lastWall.Seconds())
	fmt.Printf("crosscheck: poetd_wal_fsyncs_total %.0f\n", s["poetd_wal_fsyncs_total"])
	fmt.Printf("crosscheck: poetd_decode_frame_seconds sum %.4f s over %.0f frames; bench ack p50 %.4f ms\n",
		s["poetd_decode_frame_seconds_sum"], s["poetd_decode_frame_seconds_count"], quantile(r.ackMs, 0.5))
	fmt.Printf("crosscheck: poetd_replay_materialize_seconds sum %.4f s over %.0f views; bench QUERY@ p50 %.4f ms over %d\n",
		s["poetd_replay_materialize_seconds_sum"], s["poetd_replay_materialize_seconds_count"], quantile(r.queryAtMs, 0.5), len(r.queryAtMs))
	fmt.Printf("crosscheck: poetd_greatest_cluster_first_hit_rate %.4f\n", s["poetd_greatest_cluster_first_hit_rate"])
}

// printEnv prints the environment block every result carries.
func (r *run) printEnv(name string, seed int64) {
	// poetd's -ingest-shards default is its GOMAXPROCS (clamped to the
	// process count), so the shard count STATS reports is the daemon's
	// GOMAXPROCS.
	fmt.Printf("env: cores=%d generator_gomaxprocs=%d daemon_gomaxprocs=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), r.daemonShards, cpuModel(), runtime.Version())
	fmt.Printf("env: workload=%s seed=%d events=%d poetd %s\n", name, seed, len(r.in.events), strings.Join(r.args, " "))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
