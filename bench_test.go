package clusterts_test

// Benchmark harness for the paper's evaluation artifacts. Each figure and
// table of Section 4 has a benchmark that regenerates it (the same code
// paths as cmd/experiments), plus microbenchmarks for the core operations.
//
// Figure/table regeneration benches report, via custom metrics, the headline
// numbers of the artifact they reproduce so `go test -bench` output doubles
// as a summary of the reproduction:
//
//	BenchmarkFigure4          — panels' best ratios and total variation
//	BenchmarkFigure5          — merge-on-Nth flattening
//	BenchmarkTableStaticRange — T1/T2 window and ideal sizes
//	BenchmarkTableMerge1st    — T3 best coverage
//	BenchmarkTableMergeNth    — T4 window
//	BenchmarkAblation*        — A1/A2 baseline comparisons

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commgraph"
	"repro/internal/experiment"
	"repro/internal/fm"
	"repro/internal/hct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// benchSizes is a coarser sweep grid for the corpus-wide table benches so a
// full `go test -bench=.` stays tractable; cmd/experiments runs the full
// 2..50 grid.
func benchSizes() []int { return []int{2, 4, 6, 8, 10, 12, 13, 14, 16, 20, 24, 30, 40, 50} }

func BenchmarkFigure4(b *testing.B) {
	fig := experiment.Figure4()
	sizes := experiment.DefaultSizes()
	for i := 0; i < b.N; i++ {
		fd, err := experiment.RunFigure(fig, sizes, metrics.DefaultFixedVector)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for pi, curves := range fd.Panels {
				for _, c := range curves {
					_, best := c.Best()
					b.ReportMetric(best, "best_ratio_p"+string(rune('1'+pi))+"_"+c.Strategy)
				}
			}
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	fig := experiment.Figure5()
	sizes := experiment.DefaultSizes()
	for i := 0; i < b.N; i++ {
		fd, err := experiment.RunFigure(fig, sizes, metrics.DefaultFixedVector)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, curves := range fd.Panels {
				for _, c := range curves {
					b.ReportMetric(c.TotalVariation(), "tv_"+c.Strategy)
				}
			}
		}
	}
}

func BenchmarkTableStaticRange(b *testing.B) {
	specs := workload.Corpus()
	for i := 0; i < b.N; i++ {
		curves, err := experiment.CorpusSweep(specs, experiment.StratStatic, benchSizes(), metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			a := experiment.AnalyzeStatic(curves)
			if a.Window1OK {
				b.ReportMetric(float64(a.Window1.Lo), "window_lo")
				b.ReportMetric(float64(a.Window1.Hi), "window_hi")
			}
			b.ReportMetric(float64(len(a.IdealSizes)), "ideal_sizes")
		}
	}
}

func BenchmarkTableMerge1st(b *testing.B) {
	specs := workload.Corpus()
	for i := 0; i < b.N; i++ {
		curves, err := experiment.CorpusSweep(specs, experiment.StratMerge1st, benchSizes(), metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			a := experiment.AnalyzeMerge1st(curves)
			b.ReportMetric(a.BestCoverage*100, "best_coverage_pct")
		}
	}
}

func BenchmarkTableMergeNth(b *testing.B) {
	specs := workload.Corpus()
	for i := 0; i < b.N; i++ {
		curves, err := experiment.CorpusSweep(specs, experiment.StratMergeNth10, benchSizes(), metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			a := experiment.AnalyzeNth(curves)
			if a.Window2OK {
				b.ReportMetric(float64(a.Window2.Lo), "window_lo")
				b.ReportMetric(float64(a.Window2.Hi), "window_hi")
				b.ReportMetric(float64(len(a.Violators)), "violators")
			}
		}
	}
}

// ablationSpecs returns the subset used by the A1/A2 ablations.
func ablationSpecs(b *testing.B) []workload.Spec {
	names := []string{"pvm/ring-64", "pvm/stencil2d-96", "java/webtier-124", "dce/rpc-72"}
	var out []workload.Spec
	for _, n := range names {
		s, ok := workload.Find(n)
		if !ok {
			b.Fatalf("missing corpus spec %s", n)
		}
		out = append(out, s)
	}
	return out
}

func BenchmarkAblationKMedoid(b *testing.B) {
	specs := ablationSpecs(b)
	sizes := []int{4, 8, 13, 24, 50}
	for i := 0; i < b.N; i++ {
		static, err := experiment.CorpusSweep(specs, experiment.StratStatic, sizes, metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		km, err := experiment.CorpusSweep(specs, experiment.StratKMedoid, sizes, metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			a := experiment.AnalyzeAblation(experiment.StratKMedoid, km, static)
			b.ReportMetric(a.MeanBestRatio, "kmedoid_mean_best")
			b.ReportMetric(a.MeanBestRatioStatic, "static_mean_best")
		}
	}
}

func BenchmarkAblationContiguous(b *testing.B) {
	specs := ablationSpecs(b)
	sizes := benchSizes()
	for i := 0; i < b.N; i++ {
		static, err := experiment.CorpusSweep(specs, experiment.StratStatic, sizes, metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		contig, err := experiment.CorpusSweep(specs, experiment.StratContiguous, sizes, metrics.DefaultFixedVector, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			a := experiment.AnalyzeAblation(experiment.StratContiguous, contig, static)
			b.ReportMetric(a.MeanBestRatio, "contiguous_mean_best")
			b.ReportMetric(a.MeanBestRatioStatic, "static_mean_best")
		}
	}
}

// --- Microbenchmarks -----------------------------------------------------

func benchTrace(b *testing.B, name string) *model.Trace {
	b.Helper()
	spec, ok := workload.Find(name)
	if !ok {
		b.Fatalf("missing corpus spec %s", name)
	}
	return spec.Generate()
}

func BenchmarkFMStampAll(b *testing.B) {
	tr := benchTrace(b, "pvm/ring-128")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fm.StampAll(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHCTObserveAll(b *testing.B) {
	tr := benchTrace(b, "pvm/ring-128")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := hct.NewTimestamper(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
		if err != nil {
			b.Fatal(err)
		}
		if err := ts.ObserveAll(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccountantReplay(b *testing.B) {
	tr := benchTrace(b, "pvm/ring-128")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hct.ResultOf(tr, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticGreedyClustering(b *testing.B) {
	tr := benchTrace(b, "pvm/stencil2d-252")
	g := commgraph.FromTrace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := strategy.StaticGreedy(g, 13)
		if len(groups) == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkPrecedenceQueryHCT(b *testing.B) {
	tr := benchTrace(b, "pvm/treereduce-127")
	ts, err := hct.NewTimestamper(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnFirst()})
	if err != nil {
		b.Fatal(err)
	}
	if err := ts.ObserveAll(tr); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]model.EventID, 1024)
	for i := range pairs {
		pairs[i][0] = tr.Events[r.Intn(len(tr.Events))].ID
		pairs[i][1] = tr.Events[r.Intn(len(tr.Events))].ID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := ts.Precedes(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrecedenceQueryFM(b *testing.B) {
	tr := benchTrace(b, "pvm/treereduce-127")
	stamped, err := fm.StampAll(tr)
	if err != nil {
		b.Fatal(err)
	}
	clocks := make(map[model.EventID]int, len(stamped))
	for i, st := range stamped {
		clocks[st.Event.ID] = i
	}
	r := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i][0] = r.Intn(len(stamped))
		pairs[i][1] = r.Intn(len(stamped))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		e, f := stamped[p[0]], stamped[p[1]]
		fm.Precedes(e.Event.ID, e.Clock, f.Event.ID, f.Clock)
	}
}

func BenchmarkMonitorDeliverAll(b *testing.B) {
	tr := benchTrace(b, "java/session-97")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := monitor.New(tr.NumProcs, hct.Config{MaxClusterSize: 13, Decider: strategy.NewMergeOnNth(10)})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DeliverAll(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := cluster.NewSingletons(256)
		live := p.Live()
		for len(live) > 1 {
			p.Merge(live[0].ID, live[1].ID)
			live = p.Live()
		}
	}
}

func BenchmarkRelatedEncodings(b *testing.B) {
	// A3: the Section 2.4 related-work encodings on one computation.
	spec, ok := workload.Find("pvm/ring-64")
	if !ok {
		b.Fatal("missing corpus spec")
	}
	tc := experiment.NewTraceContext(spec.Generate())
	for i := 0; i < b.N; i++ {
		r, err := experiment.CompareRelated(tc, 13, metrics.DefaultFixedVector)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.ClusterInts, "cluster_ints_per_event")
			b.ReportMetric(r.DifferentialInts, "diff_ints_per_event")
			b.ReportMetric(r.DirectDepInts, "directdep_ints_per_event")
			b.ReportMetric(float64(r.DirectDepSearch), "directdep_query_visits")
		}
	}
}

func BenchmarkBatchTimestamper(b *testing.B) {
	tr := benchTrace(b, "java/warmsession-97")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := hct.NewBatchTimestamper(tr.NumProcs, hct.BatchConfig{
			MaxClusterSize: 13, BatchSize: 3000, Decider: strategy.NewMergeOnFirst(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := bt.ObserveAll(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMigratingTimestamper(b *testing.B) {
	tr := benchTrace(b, "java/warmsession-97")
	b.SetBytes(int64(tr.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, err := hct.NewMigratingTimestamper(tr.NumProcs, hct.MigrateConfig{
			MaxClusterSize: 13, MigrateAfter: 8, Decider: strategy.NewMergeOnFirst(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := mt.ObserveAll(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchyComparison(b *testing.B) {
	// H1: multi-level hierarchy vs the paper's two levels.
	spec, ok := workload.Find("pvm/stencil2d-300")
	if !ok {
		b.Fatal("missing corpus spec")
	}
	tc := experiment.NewTraceContext(spec.Generate())
	for i := 0; i < b.N; i++ {
		r, err := experiment.CompareHierarchy(tc, 13, 60, metrics.DefaultFixedVector)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.TwoLevelInts, "two_level_ints_per_event")
			b.ReportMetric(r.ThreeLevelInts, "three_level_ints_per_event")
		}
	}
}
