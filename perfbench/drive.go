package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
)

// run carries one benchmark run's configuration and its measurements.
type run struct {
	in      *inputs
	seed    int64
	seconds time.Duration
	poetd   string // daemon binary
	work    string // scratch directory inside the checkout
	http    bool   // start poetd with -http and scrape it (traced runs)
	ref     reference

	ackMs, queryMs, queryAtMs []float64 // every sample, for the tails
	windows                   []*window
	setupS                    []float64
	rssPerEvent, diskPerEvent []float64
	queryDaemonRSS            float64   // history-query's query-serving daemon, B/event
	queries                   int       // answered QUERY and QUERY@ records
	genLateMs, blockedMs      []float64 // open-loop health (web-mixed)
	attempted, failed         int
	wrong                     []string      // correctness failures
	args                      []string      // the last poetd flags used
	lastWall                  time.Duration // producer wall time of the last ingest pass
	scraped                   map[string]float64
	viewOps                   map[string]int // history-query QUERY@ kinds issued
	daemonShards              int64          // ingest shards poetd reports in STATS
	daemons                   []*daemon
}

// fail records a correctness failure; any one fails the run.
func (r *run) fail(format string, a ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, a...))
	}
}

// reference is what an in-process single-writer Collector and Monitor make
// of the same batches: the daemon's final STATS must match it.
type reference struct {
	stats   monitor.Stats
	heldMax int
	runs    int
}

func runReference(in *inputs) (reference, error) {
	m, err := monitor.New(in.procs, in.newConfig())
	if err != nil {
		return reference{}, err
	}
	defer m.Close()
	c := monitor.NewCollector(m)
	var ref reference
	prev := 0
	for i, b := range in.batches {
		if n, err := c.SubmitBatch(b); err != nil || n != len(b) {
			return ref, fmt.Errorf("reference collector: batch %d: accepted %d of %d: %v", i, n, len(b), err)
		}
		ref.heldMax = max(ref.heldMax, c.Held())
		if ev := m.Accounting().Events; ev > prev {
			ref.runs++
			prev = ev
		}
	}
	if c.Held() != 0 {
		return ref, fmt.Errorf("reference collector holds %d events at the end", c.Held())
	}
	ref.stats = m.Stats(metrics.DefaultFixedVector)
	return ref, nil
}

// daemonArgs are poetd's flags: defaults except the process count, the
// listener, the WAL root, the strategy and the log level.
func (r *run) daemonArgs(dir string) []string {
	args := []string{"-procs", strconv.Itoa(r.in.procs), "-addr", "127.0.0.1:0", "-wal", dir,
		"-strategy", r.in.strategy, "-log-level", "info"}
	if r.http {
		args = append(args, "-http", "127.0.0.1:0")
	}
	r.args = args
	return args
}

// launch starts a daemon and keeps track of it, so that stopAll can end it
// on any error path.
func (r *run) launch(dir string) (*daemon, *monitor.ClientV2, error) {
	d, c, err := startDaemon(r.poetd, r.daemonArgs(dir))
	if err != nil {
		return nil, nil, err
	}
	r.daemons = append(r.daemons, d)
	return d, c, nil
}

// start launches a daemon and records its set-up time.
func (r *run) start(dir string) (*daemon, *monitor.ClientV2, error) {
	d, c, err := r.launch(dir)
	if err != nil {
		return nil, nil, err
	}
	r.setupS = append(r.setupS, d.setup.Seconds())
	return d, c, nil
}

// stopAll kills every daemon the run started that is still running.
func (r *run) stopAll() {
	for _, d := range r.daemons {
		if !d.ended {
			d.kill()
		}
	}
}

// checkStats compares the daemon's STATS with the reference.
func (r *run) checkStats(c *monitor.ClientV2) {
	body, err := c.Stats()
	if err != nil {
		r.fail("STATS: %v", err)
		return
	}
	st := parseStats(body)
	r.daemonShards = st["shards"]
	want := map[string]int64{
		"events":  int64(r.ref.stats.Events),
		"crs":     int64(r.ref.stats.ClusterReceives),
		"storage": r.ref.stats.StorageInts,
		"held":    0,
	}
	for k, v := range want {
		if got, ok := st[k]; !ok || got != v {
			r.fail("STATS %s=%d, reference %d", k, got, v)
		}
	}
}

// finish reads the daemon's peak RSS, stops it and measures the WAL root.
// The root's size per event goes to diskPerEvent; the peak RSS per event is
// returned.
func (r *run) finish(d *daemon, c *monitor.ClientV2, dir string) (float64, error) {
	rss, err := d.peakRSS()
	if err != nil {
		return 0, err
	}
	if r.http {
		r.scraped, err = d.scrape(crossCheckFamilies)
		if err != nil {
			return 0, fmt.Errorf("scrape /metrics: %w", err)
		}
	}
	c.Close()
	if err := d.stop(); err != nil {
		return 0, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	n := float64(len(r.in.events))
	r.diskPerEvent = append(r.diskPerEvent, float64(disk)/n)
	return float64(rss) / n, nil
}

// window is one measurement interval of a run. The gated figures are
// medians across a run's windows of per-window values, so a burst of
// outside load that spoils a few windows does not move the run's figure;
// the tails are taken over every sample.
type window struct {
	events   int
	ingest   time.Duration
	ackMs    []float64
	queries  int
	querying time.Duration
	queryMs  []float64
}

func (r *run) newWindow() *window {
	w := &window{}
	r.windows = append(r.windows, w)
	return w
}

// perWindow collects f over the windows where it is defined.
func (r *run) perWindow(f func(w *window) (float64, bool)) []float64 {
	var out []float64
	for _, w := range r.windows {
		if v, ok := f(w); ok {
			out = append(out, v)
		}
	}
	return out
}

func (r *run) ack(w *window, d time.Duration) {
	r.ackMs = append(r.ackMs, ms(d))
	w.ackMs = append(w.ackMs, ms(d))
}

func (r *run) answered(w *window, n int, d time.Duration) {
	r.queryMs = append(r.queryMs, ms(d))
	w.queryMs = append(w.queryMs, ms(d))
	w.queries += n
}

// ingestClosed sends every batch in a closed loop — the next frame goes out
// once the previous one is acknowledged — and records each EVENTS→ACK
// latency. ReportBatch fails unless the ACK count equals the batch size.
func (r *run) ingestClosed(c *monitor.ClientV2, w *window) {
	start := time.Now()
	for i, b := range r.in.batches {
		t := time.Now()
		r.attempted++
		if err := c.ReportBatch(b); err != nil {
			r.failed++
			r.fail("batch %d: %v", i, err)
			continue
		}
		r.ack(w, time.Since(t))
	}
	w.ingest = time.Since(start)
	w.events = len(r.in.events)
	r.lastWall = w.ingest
}

// query sends one QUERY (cutoff < 0) or QUERY@ batch, checks the answers
// and returns false when the exchange failed.
func (r *run) query(c *monitor.ClientV2, qs []monitor.Query, cutoff int) bool {
	res, err := exchange(c, qs, cutoff)
	return r.judge(qs, cutoff, res, err)
}

func exchange(c *monitor.ClientV2, qs []monitor.Query, cutoff int) ([]monitor.QueryResult, error) {
	if cutoff < 0 {
		return c.QueryBatch(qs)
	}
	return c.QueryBatchAt(uint64(cutoff), qs)
}

// judge accounts one query exchange and checks its answers.
func (r *run) judge(qs []monitor.Query, cutoff int, res []monitor.QueryResult, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("query batch: %v", err)
		return false
	}
	for i, a := range res {
		if a.Err != nil {
			r.failed++
			r.fail("query %v %v refused: %v", qs[i].A, qs[i].B, a.Err)
			return false
		}
		if !r.in.oracle.check(qs[i], a.True) {
			r.fail("query op=%d %v %v (cutoff %d): answered %v, Fidge/Mattern disagrees", qs[i].Op, qs[i].A, qs[i].B, cutoff, a.True)
		}
	}
	r.queries += len(qs)
	return true
}

// probeBatches is the idle-daemon query probe after each ingest-ring round,
// measured in windows of probeChunk batches.
const (
	probeBatches = 400
	probeChunk   = 50
)

// probeSettle is the pause between an ingest-ring round's last ACK and its
// query probe.
const probeSettle = 200 * time.Millisecond

// ingestRing runs rounds until the run's time is spent: each round launches
// a fresh daemon on an empty WAL root, streams the whole ring trace in a
// closed loop, then probes the idle daemon with live queries.
func (r *run) ingestRing() error {
	q := &querier{in: r.in, r: rand.New(rand.NewSource(r.seed))}
	t0 := time.Now()
	for round := 0; round == 0 || time.Since(t0) < r.seconds; round++ {
		dir := filepath.Join(r.work, fmt.Sprintf("ring-%d", round))
		d, c, err := r.start(dir)
		if err != nil {
			return err
		}
		w := r.newWindow()
		r.ingestClosed(c, w)
		last := len(r.in.batches) - 1
		// The probe measures an idle daemon: one untimed batch waits out
		// the stamping backlog, and the pause lets the WAL's background
		// snapshot finish.
		r.query(c, q.liveBatch(last, queryBatch), -1)
		time.Sleep(probeSettle)
		// Each chunk of the probe is its own window: a GC cycle or the
		// tail of the snapshot left over from the ingest then spoils one
		// chunk, not the round's query figures. A chunk's frames are drawn
		// before and checked after it, so its wall time is the exchanges'.
		for chunk := 0; chunk < probeBatches/probeChunk; chunk++ {
			batches := make([][]monitor.Query, probeChunk)
			for i := range batches {
				batches[i] = q.liveBatch(last, queryBatch)
			}
			results := make([][]monitor.QueryResult, probeChunk)
			errs := make([]error, probeChunk)
			lat := make([]time.Duration, probeChunk)
			qstart := time.Now()
			for i, qs := range batches {
				t := time.Now()
				results[i], errs[i] = exchange(c, qs, -1)
				lat[i] = time.Since(t)
			}
			pw := r.newWindow()
			pw.querying = time.Since(qstart)
			for i, qs := range batches {
				if r.judge(qs, -1, results[i], errs[i]) {
					r.answered(pw, len(qs), lat[i])
				}
			}
		}
		r.checkStats(c)
		rss, err := r.finish(d, c, dir)
		if err != nil {
			return err
		}
		r.rssPerEvent = append(r.rssPerEvent, rss)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// webSetups is how many extra daemon launches web-mixed times, so its
// setup_s is a median like the other workloads'.
const webSetups = 15

// webQueryRate is web-mixed's offered QUERY frames per second.
const webQueryRate = 100

// webWindow and historyWindow are the measurement windows of the two
// workloads that run one long phase.
const (
	webWindow     = 2 * time.Second
	historyWindow = 2 * time.Second
)

// webMixed offers the skewed web-tier stream at a fixed rate on one
// connection while a second connection offers QUERY frames over
// already-delivered events, both on open-loop schedules. Latency counts
// from each request's due time, so a stall also charges the requests queued
// behind it. The generator's own lateness — its timer waking after the due
// time while the connection was free, up to a millisecond with Go timers on
// Linux — is reported separately and left out of the latency.
func (r *run) webMixed() error {
	for i := 0; i < webSetups; i++ {
		dir := filepath.Join(r.work, fmt.Sprintf("web-setup-%d", i))
		d, c, err := r.start(dir)
		if err != nil {
			return err
		}
		c.Close()
		if err := d.stop(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	dir := filepath.Join(r.work, "web")
	d, c, err := r.start(dir)
	if err != nil {
		return err
	}
	qc, err := monitor.DialV2(d.addr)
	if err != nil {
		c.Close()
		d.kill()
		return err
	}
	period := time.Second * webBatch / webRate
	qperiod := time.Second / webQueryRate
	// Windows split the schedule by due time; a short tail joins the last.
	windows := make([]*window, max(1, int(time.Duration(len(r.in.batches))*period/webWindow)))
	for i := range windows {
		windows[i] = r.newWindow()
	}
	var acked atomic.Int64
	acked.Store(-1)
	done := make(chan struct{})
	q := &querier{in: r.in, r: rand.New(rand.NewSource(r.seed))}
	var qmu sync.Mutex // guards r's counters shared with the producer; never held across a network call
	var wg sync.WaitGroup
	t0 := time.Now()
	windowOf := func(due time.Time) int { return min(int(due.Sub(t0)/webWindow), len(windows)-1) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		prevDone := t0
		for j := 0; ; j++ {
			due := t0.Add(time.Duration(j) * qperiod)
			select {
			case <-done:
				return
			case <-time.After(time.Until(due)):
			}
			k := int(acked.Load())
			if k < 0 {
				continue
			}
			i := windowOf(due)
			qs := q.liveBatch(k, queryBatch)
			sent := time.Now()
			res, err := exchange(qc, qs, -1)
			now := time.Now()
			qmu.Lock()
			if r.judge(qs, -1, res, err) {
				r.answered(windows[i], len(qs), now.Sub(due)-sent.Sub(later(due, prevDone)))
				windows[i].querying = now.Sub(t0.Add(time.Duration(i) * webWindow))
			}
			prevDone = now
			qmu.Unlock()
		}
	}()
	prevDone := t0
	for k, b := range r.in.batches {
		due := t0.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		sent := time.Now()
		late := sent.Sub(later(due, prevDone))
		r.genLateMs = append(r.genLateMs, ms(late))
		r.blockedMs = append(r.blockedMs, ms(max(0, prevDone.Sub(due))))
		err := c.ReportBatch(b)
		prevDone = time.Now()
		i := windowOf(due)
		qmu.Lock()
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("batch %d: %v", k, err)
		} else {
			w := windows[i]
			r.ack(w, prevDone.Sub(due)-late)
			w.events += len(b)
			w.ingest = prevDone.Sub(t0.Add(time.Duration(i) * webWindow))
		}
		qmu.Unlock()
		acked.Store(int64(k))
	}
	wall := time.Since(t0)
	close(done)
	wg.Wait()
	r.lastWall = wall
	qc.Close()
	r.checkStats(c)
	rss, err := r.finish(d, c, dir)
	r.rssPerEvent = append(r.rssPerEvent, rss)
	return err
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// historyRestarts is how many times history-query restarts poetd on the
// recorded WAL root; each restart is one setup_s sample (recovery plus the
// replay plane's open), and the last one serves the query phase.
const historyRestarts = 4

// historyRecordings is how many times history-query records its trace, each
// into a fresh WAL root: half before the query phase, the last of which is
// the history the queries read, and half after it, so that the ingest
// figures and rss_peak_bytes_per_event (medians over the recordings) sample
// the whole run. The query-serving daemon's peak RSS is reported apart: it
// holds the replay plane's engines and cached views, whose size at the peak
// depends on GC timing and on which views the cache holds, and it spread
// past the metric's bound between runs.
const historyRecordings = 8

// historyQuery records the RPC trace (its ingest is timed like
// ingest-ring's), restarts the daemon on that WAL root, and then runs a
// closed loop of live QUERY and QUERY@ frames on one connection.
func (r *run) historyQuery() error {
	var dir string
	record := func(from, to int) error {
		for i := from; i < to; i++ {
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
			}
			dir = filepath.Join(r.work, fmt.Sprintf("history-%d", i))
			d, c, err := r.launch(dir)
			if err != nil {
				return err
			}
			r.ingestClosed(c, r.newWindow())
			r.checkStats(c)
			rss, err := d.peakRSS()
			if err != nil {
				return err
			}
			c.Close()
			if err := d.stop(); err != nil {
				return err
			}
			r.rssPerEvent = append(r.rssPerEvent, float64(rss)/float64(len(r.in.events)))
		}
		return nil
	}
	if err := record(0, historyRecordings/2); err != nil {
		return err
	}
	var d *daemon
	var c *monitor.ClientV2
	var err error
	for i := 0; i < historyRestarts; i++ {
		d, c, err = r.start(dir)
		if err != nil {
			return err
		}
		r.checkStats(c)
		if i == historyRestarts-1 {
			break
		}
		c.Close()
		if err := d.stop(); err != nil {
			return err
		}
	}
	s := newCutoffSchedule(r.in, r.seed)
	q := &querier{in: r.in, r: rand.New(rand.NewSource(r.seed))}
	last := len(r.in.batches) - 1
	// Warm-up, untimed: the first QUERY@ extends the replay plane's shared
	// engine from nothing to a quarter of history.
	if !r.query(c, q.prefixBatch(s.warm, queryBatch), s.warm) {
		return fmt.Errorf("history warm-up failed: %v", r.wrong)
	}
	s.note(s.warm)
	r.queries = 0
	t0 := time.Now()
	w, ws := r.newWindow(), t0
	for i := 0; time.Since(t0) < r.seconds; i++ {
		if time.Since(ws) >= historyWindow {
			w.querying = time.Since(ws)
			w, ws = r.newWindow(), time.Now()
		}
		var qs []monitor.Query
		cutoff := -1
		if i%2 == 0 {
			qs = q.liveBatch(last, queryBatch)
		} else {
			var kind string
			cutoff, kind = s.next(float64(time.Since(t0)) / float64(r.seconds))
			r.viewOps[kind]++
			qs = q.prefixBatch(cutoff, queryBatch)
		}
		t := time.Now()
		if !r.query(c, qs, cutoff) {
			continue
		}
		if cutoff < 0 {
			r.answered(w, len(qs), time.Since(t))
		} else {
			r.queryAtMs = append(r.queryAtMs, ms(time.Since(t)))
			w.queries += len(qs)
		}
	}
	w.querying = time.Since(ws)
	r.checkStats(c)
	if r.queryDaemonRSS, err = r.finish(d, c, dir); err != nil {
		return err
	}
	return record(historyRecordings/2, historyRecordings)
}

// cutoffSchedule picks QUERY@ cutoffs so that the replay plane's three
// paths recur in a fixed mix: cache hits on one of the last views it
// materialized, forward extensions of its shared engine by one frame, and
// rewinds below the shared engine that restamp from scratch. It mirrors the
// replay plane's FIFO view cache to know which is which.
//
// History is finite, so forward extensions are spread evenly over the
// measured time rather than over the operation count: the mix stays the
// same from the first second to the last whatever the daemon's speed.
type cutoffSchedule struct {
	r        *rand.Rand
	valid    []int // cutoffs at frame boundaries where the collector holds nothing
	warm     int
	shared   int   // how far the replay plane's shared engine has stamped
	cache    []int // FIFO of materialized cutoffs, oldest first
	step     int
	forwards int // forward cutoffs available after warm

	restamped, misses, forwarded int
}

// viewCacheSize is the replay plane's default view cache (replay.Options).
const viewCacheSize = 8

// rewindEvery is how many QUERY@ batches there are per rewind, and
// rewindTargets how many distinct cutoffs the rewinds cycle through. At one
// rewind in 128 the rewinds take about a third of the query phase; more
// often, their cost (the part that moves most with a shared host's CPU
// steal) dominates queries_per_s and it spreads past its bound.
const (
	rewindEvery   = 128
	rewindTargets = viewCacheSize + 4
)

func newCutoffSchedule(in *inputs, seed int64) *cutoffSchedule {
	s := &cutoffSchedule{r: rand.New(rand.NewSource(seed ^ 0xc07))}
	size := len(in.batches[0])
	for k, n := range in.delivered {
		// Only boundaries where every arrived event is delivered: the
		// recorded prefix is then exactly the first n events sent.
		if n == min((k+1)*size, len(in.events)) {
			s.valid = append(s.valid, n)
		}
	}
	s.warm = s.valid[len(s.valid)/4]
	s.forwards = len(s.valid) - len(s.valid)/4 - 1
	return s
}

// note mirrors the replay plane's bookkeeping for one QUERY@ at cutoff.
func (s *cutoffSchedule) note(cutoff int) {
	if s.cached(cutoff) {
		return
	}
	s.misses++
	if cutoff >= s.shared {
		s.restamped += cutoff - s.shared
		s.shared = cutoff
	} else {
		s.restamped += cutoff
	}
	s.cache = append(s.cache, cutoff)
	if len(s.cache) > viewCacheSize {
		s.cache = s.cache[1:]
	}
}

// next returns the next cutoff and its kind, given the share of the
// measured time already spent. Every rewindEvery-th QUERY@ is a rewind to a
// cutoff between 1/16 and 1/8 of history; a forward extension is due
// whenever fewer than that share of the forward cutoffs have been used; the
// rest hit the cache.
func (s *cutoffSchedule) next(elapsed float64) (int, string) {
	s.step++
	cutoff, kind := s.cache[s.r.Intn(len(s.cache))], "hit"
	if s.step%rewindEvery == 0 {
		// Rewind targets cycle through rewindTargets evenly spaced cutoffs,
		// more than the cache holds, so each is evicted before its turn
		// comes again and every rewind restamps about the same amount.
		lo, hi := len(s.valid)/16, len(s.valid)/8
		i := (s.step / rewindEvery) % rewindTargets
		cutoff, kind = s.valid[lo+i*(hi-lo)/(rewindTargets-1)], "rewind"
	} else if float64(s.forwarded) < elapsed*float64(s.forwards) {
		for _, c := range s.valid {
			if c > s.shared {
				cutoff, kind = c, "forward"
				s.forwarded++
				break
			}
		}
	}
	s.note(cutoff)
	return cutoff, kind
}

func (s *cutoffSchedule) cached(c int) bool {
	for _, x := range s.cache {
		if x == c {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
