// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation as testing.B benchmarks, reporting the paper's
// metrics through b.ReportMetric:
//
//	BenchmarkTable1_IndexBuild        index construction + file sizes (Table 1)
//	BenchmarkTable2_BufferPlan        buffer sizing heuristics (Table 2)
//	BenchmarkTable3_WallClock/...     the full 7-row x 3-system matrix (Table 3)
//	BenchmarkTable4_SystemIO/...      system CPU + I/O times (Table 4)
//	BenchmarkTable5_IOStats/...       I, A, B I/O statistics (Table 5)
//	BenchmarkTable6_HitRates/...      per-pool buffer hit rates (Table 6)
//	BenchmarkFigure1_ListSizeDistribution
//	BenchmarkFigure2_AccessBySize
//	BenchmarkFigure3_BufferSweep
//	BenchmarkAblation*                design-decision ablations
//
// Collection scale defaults to 0.25 so the full suite completes in a
// few minutes; set REPRO_BENCH_SCALE=1.0 for the full reproduction (the
// numbers cmd/repro prints). ns/op is real host time for the measured
// operation; *_s metrics are the deterministic 1993-machine estimates.
package repro

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

func benchScale() float64 {
	if v := os.Getenv("REPRO_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

var (
	labOnce sync.Once
	labVal  *experiments.Lab
)

func benchLab() *experiments.Lab {
	labOnce.Do(func() {
		labVal = experiments.NewLab(benchScale())
	})
	return labVal
}

// matrixRows mirrors the paper's seven (collection, query set) rows.
var matrixRows = []struct {
	col string
	qs  int
}{
	{"CACM", 0}, {"CACM", 1}, {"CACM", 2},
	{"Legal", 0}, {"Legal", 1},
	{"TIPSTER1", 0},
	{"TIPSTER", 0},
}

var systems = []experiments.System{
	experiments.SysBTree, experiments.SysMnemeNoCache, experiments.SysMnemeCache,
}

func sysLabel(s experiments.System) string {
	switch s {
	case experiments.SysBTree:
		return "BTree"
	case experiments.SysMnemeNoCache:
		return "MnemeNoCache"
	default:
		return "MnemeCache"
	}
}

// BenchmarkTable1_IndexBuild measures index construction for the CACM
// collection (both backends on a fresh file system each iteration) and
// reports the Table 1 file sizes.
func BenchmarkTable1_IndexBuild(b *testing.B) {
	col, ok := collection.ByName("CACM", benchScale())
	if !ok {
		b.Fatal("no CACM spec")
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	var stats *core.BuildStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize})
		st, err := core.Build(fs, col.Name, col.Stream(), core.BuildOptions{Analyzer: an})
		if err != nil {
			b.Fatal(err)
		}
		stats = st
	}
	b.ReportMetric(float64(stats.Records), "records")
	b.ReportMetric(float64(stats.BTreeBytes)/1024, "btree_kb")
	b.ReportMetric(float64(stats.MnemeBytes)/1024, "mneme_kb")
}

// BenchmarkTable2_BufferPlan regenerates the buffer-size table.
func BenchmarkTable2_BufferPlan(b *testing.B) {
	lab := benchLab()
	for _, row := range matrixRows {
		if _, err := lab.Collection(row.col); err != nil { // build outside the timer
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = lab.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

// benchRun measures one (collection, query set, system) batch run and
// reports its model metrics.
func benchRun(b *testing.B, col string, qs int, sys experiments.System) *experiments.RunResult {
	lab := benchLab()
	if _, err := lab.Collection(col); err != nil { // build outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r *experiments.RunResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = lab.RunFresh(col, qs, sys)
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkTable3_WallClock runs the complete evaluation matrix — the
// paper's headline comparison.
func BenchmarkTable3_WallClock(b *testing.B) {
	for _, row := range matrixRows {
		for _, sys := range systems {
			name := fmt.Sprintf("%s_qs%d/%s", row.col, row.qs+1, sysLabel(sys))
			b.Run(name, func(b *testing.B) {
				r := benchRun(b, row.col, row.qs, sys)
				b.ReportMetric(r.Wall.Seconds(), "wall_model_s")
			})
		}
	}
}

// BenchmarkTable4_SystemIO reports the Table 4 metric for the Legal
// collection's richer query set, all three systems.
func BenchmarkTable4_SystemIO(b *testing.B) {
	for _, sys := range systems {
		b.Run(sysLabel(sys), func(b *testing.B) {
			r := benchRun(b, "Legal", 1, sys)
			b.ReportMetric(r.SysIO.Seconds(), "sysio_model_s")
			b.ReportMetric(r.UserCPU.Seconds(), "usercpu_model_s")
		})
	}
}

// BenchmarkTable5_IOStats reports I (disk blocks), A (file accesses per
// lookup), and B (Kbytes read) for the TIPSTER collection.
func BenchmarkTable5_IOStats(b *testing.B) {
	for _, sys := range systems {
		b.Run(sysLabel(sys), func(b *testing.B) {
			r := benchRun(b, "TIPSTER", 0, sys)
			b.ReportMetric(float64(r.IO.DiskReads), "I_blocks")
			b.ReportMetric(r.A(), "A_acc/lookup")
			b.ReportMetric(float64(r.IO.BytesRead)/1024, "B_kb")
		})
	}
}

// BenchmarkTable6_HitRates reports per-pool buffer hit rates for the
// Mneme-with-cache runs.
func BenchmarkTable6_HitRates(b *testing.B) {
	for _, row := range matrixRows {
		name := fmt.Sprintf("%s_qs%d", row.col, row.qs+1)
		b.Run(name, func(b *testing.B) {
			r := benchRun(b, row.col, row.qs, experiments.SysMnemeCache)
			b.ReportMetric(r.Buffers["small"].HitRate(), "small_rate")
			b.ReportMetric(r.Buffers["medium"].HitRate(), "medium_rate")
			b.ReportMetric(r.Buffers["large"].HitRate(), "large_rate")
		})
	}
}

// BenchmarkFigure1_ListSizeDistribution regenerates the cumulative
// inverted-list size distribution for Legal.
func BenchmarkFigure1_ListSizeDistribution(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("Legal"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = lab.Figure1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.Series[0].Points)), "points")
}

// BenchmarkFigure2_AccessBySize regenerates the access-frequency-by-size
// profile for Legal Query Set 2.
func BenchmarkFigure2_AccessBySize(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("Legal"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = lab.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	var uses float64
	for _, p := range f.Series[0].Points {
		uses += p.Y
	}
	b.ReportMetric(uses, "total_uses")
}

// BenchmarkFigure3_BufferSweep sweeps the large-object buffer size for
// TIPSTER Query Set 1.
func BenchmarkFigure3_BufferSweep(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("TIPSTER"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = lab.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	pts := f.Series[0].Points
	b.ReportMetric(pts[0].Y, "hitrate_min_buf")
	b.ReportMetric(pts[len(pts)-1].Y, "hitrate_max_buf")
}

// BenchmarkAblationNoReserve measures the reservation optimization.
func BenchmarkAblationNoReserve(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("Legal"); err != nil { // build outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = lab.AblationReserve("Legal", 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t.Rows)), "variants")
}

// BenchmarkAblationSinglePool compares the three-pool partition against
// one unpartitioned pool.
func BenchmarkAblationSinglePool(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("Legal"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = lab.AblationSinglePool("Legal", 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t.Rows)), "variants")
}

// BenchmarkAblationSegmentSize sweeps the medium-pool segment size.
func BenchmarkAblationSegmentSize(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("Legal"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = lab.AblationSegmentSize("Legal", 0, []int{4096, 8192, 16384})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t.Rows)), "variants")
}

// BenchmarkAblationBufferPolicy compares LRU, FIFO, and clock
// replacement for the record buffers.
func BenchmarkAblationBufferPolicy(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("CACM"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = lab.AblationBufferPolicy("CACM", 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t.Rows)), "variants")
}

// BenchmarkAblationChunkedLists compares whole vs chunked large lists.
func BenchmarkAblationChunkedLists(b *testing.B) {
	lab := benchLab()
	if _, err := lab.Collection("CACM"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = lab.AblationChunkedLists("CACM", 0, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t.Rows)), "variants")
}

// BenchmarkParallelSearch measures concurrent query serving over one
// shared engine with a warm Mneme record cache: the batch driver at
// increasing worker counts (queries/s is the headline metric), plus a
// b.RunParallel variant with one Searcher per goroutine.
func BenchmarkParallelSearch(b *testing.B) {
	lab := benchLab()
	built, err := lab.Collection("Legal")
	if err != nil {
		b.Fatal(err)
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	eng, err := core.Open(built.FS, built.Col.Name, core.BackendMneme,
		core.WithAnalyzer(an), core.WithPlan(experiments.PlanFor(built)))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var queries []string
	for _, q := range built.Col.GenQueries(built.Col.QuerySets[0]) {
		queries = append(queries, q.Text)
	}
	// Warm the record buffers so the measurement isolates concurrency,
	// not cold I/O.
	if _, err := eng.SearchBatch(queries, core.TopK(10)); err != nil {
		b.Fatal(err)
	}

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("batch/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SearchBatch(queries, core.Parallelism(w), core.TopK(10)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(queries))/b.Elapsed().Seconds(), "queries/s")
		})
	}

	b.Run("runparallel", func(b *testing.B) {
		b.ReportAllocs()
		var cursor atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			s := eng.Acquire()
			for pb.Next() {
				q := queries[int(cursor.Add(1)-1)%len(queries)]
				if _, err := s.Run(nil, core.Request{Query: q, TopK: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkSection2Analysis regenerates the paper's §2 workload
// analysis: size-class fractions, compression rate, term repetition.
func BenchmarkSection2Analysis(b *testing.B) {
	lab := benchLab()
	for _, row := range matrixRows {
		if _, err := lab.Collection(row.col); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var t1, t2 *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t1, err = lab.AnalyzeCollections()
		if err != nil {
			b.Fatal(err)
		}
		t2, err = lab.AnalyzeQueryRepetition()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(t1.Rows)+len(t2.Rows)), "rows")
}
