package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// BenchSchema versions the BENCH_query.json format. Bump it whenever a
// field changes meaning, so CompareBench refuses to diff across formats.
// v2 added the prune stage, skip counters, and the chunked DAAT rows.
// v3 added the paired near-real-time rows ("nrt ingest"/"nrt idle")
// and their write-path block (docs/sec, flush pause p95).
// v4 added the cached repeat-query rows ("Mneme, Cache (cached)") with
// their per-row cache-stats block, gated by CheckCachedRepeat.
const BenchSchema = "repro/bench_query/v4"

// ServeBenchSchema versions the BENCH_serve.json format written by
// cmd/loadgen: the same BenchReport envelope and row shape as the
// query bench, with per-row serving statistics (achieved QPS, shed
// rate) in the Serve block and wall-clock HTTP latency quantiles as a
// single "http" stage. Keeping the shape shared means CompareBench
// gates served latency alongside the query bench with the same code.
const ServeBenchSchema = "repro/bench_serve/v1"

// BenchSystems are the configurations the bench mode measures: the two
// storage backends, with Mneme under its paper buffer plan.
var BenchSystems = []System{SysBTree, SysMnemeCache}

// ShardedBenchNs are the shard counts of the bench mode's document-
// partitioned scatter-gather rows. The x1 row is the single-shard
// reference the CheckShardedScaling gate compares against.
var ShardedBenchNs = []int{1, 2, 4}

// BenchResultCacheEntries and BenchBlockCacheMB size the hot-path
// caches of the "(cached)" repeat-query rows: generous enough that the
// bench query mix fits entirely, so the measured pass is the pure
// cache-hit regime.
const (
	BenchResultCacheEntries = 1024
	BenchBlockCacheMB       = 32
)

// benchTotalStage names the synthetic whole-query stage every bench row
// carries alongside the per-stage breakdown: the per-query sum of all
// stage costs, quantiled. The cached-repeat gate compares it because a
// result-cache hit collapses every stage at once, which no single
// stage's quantile can witness.
const benchTotalStage = "total"

// BenchStage holds one per-stage latency distribution over a query mix.
// Times are simulated microseconds from the lab's cost model applied to
// each query's trace counts — a pure function of the counters, so the
// report is byte-identical across runs and machines.
type BenchStage struct {
	Stage string  `json:"stage"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
}

// BenchHitRate is one pool's record-buffer outcome over the run.
type BenchHitRate struct {
	Pool string  `json:"pool"`
	Refs int64   `json:"refs"`
	Hits int64   `json:"hits"`
	Rate float64 `json:"rate"`
}

// BenchSkips totals the evaluation work the run avoided: postings an
// Advance-capable iterator never surfaced, block bodies never decoded,
// and storage chunks never faulted in.
type BenchSkips struct {
	Postings int64 `json:"postings"`
	Blocks   int64 `json:"blocks"`
	Chunks   int64 `json:"chunks"`
}

// ServeStats is the serving-side block of a BENCH_serve.json row: what
// a loadgen run achieved against a live inqueryd, beyond the latency
// quantiles carried in the row's "http" stage.
type ServeStats struct {
	// Mode is the load-generation discipline: "closed" (fixed worker
	// pool, next request after the previous response) or "open"
	// (Poisson arrivals at a target rate, independent of responses).
	Mode string `json:"mode"`
	// Requests is the number of HTTP requests that completed.
	Requests int `json:"requests"`
	// Seconds is the measured run length.
	Seconds float64 `json:"seconds"`
	// QPS is the achieved served throughput (Requests / Seconds).
	QPS float64 `json:"qps"`
	// ShedRate is the fraction of requests answered 429 (admission
	// control shed) — the overload signal.
	ShedRate float64 `json:"shed_rate"`
	// Errors counts transport-level failures (connection refused,
	// malformed replies); any non-zero value fails the gate.
	Errors int `json:"errors"`
	// Failed counts requests answered with HTTP 5xx — server-side
	// query failures (breaker exhaustion, lost quorum, internal
	// errors), as opposed to 429 sheds. The replica-kill gate
	// (CheckReplicaKill) requires zero.
	Failed int `json:"failed,omitempty"`
}

// BenchRow is one (system, collection, query set) measurement.
type BenchRow struct {
	Backend    string         `json:"backend"`
	Collection string         `json:"collection"`
	QuerySet   string         `json:"query_set"`
	Queries    int            `json:"queries"`
	Stages     []BenchStage   `json:"stages"`
	HitRates   []BenchHitRate `json:"hit_rates,omitempty"`
	DiskReads  int64          `json:"disk_reads"`
	BytesRead  int64          `json:"bytes_read"`
	// Skips is present on the document-at-a-time rows, where iterators
	// can skip; the exhaustive and pruned rows differ only here and in
	// the stage latencies.
	Skips *BenchSkips `json:"skips,omitempty"`
	// Serve is present on BENCH_serve.json rows only: the loadgen
	// throughput/shed measurements CompareBench gates in addition to
	// the row's latency stages.
	Serve *ServeStats `json:"serve,omitempty"`
	// NRT is present on the "nrt ingest" rows only: the write-path
	// throughput and flush-pause distribution measured while the row's
	// queries ran mid-ingest (see CheckNRTIngest).
	NRT *NRTBench `json:"nrt,omitempty"`
	// Cache is present on the "(cached)" repeat-query rows only: the
	// engine's result- and block-cache counters over the warm pass plus
	// the measured repeat pass (see CheckCachedRepeat).
	Cache *core.CacheStats `json:"cache,omitempty"`
}

// BenchReport is the full bench-mode output (BENCH_query.json).
type BenchReport struct {
	Schema string     `json:"schema"`
	Scale  float64    `json:"scale"`
	Rows   []BenchRow `json:"rows"`
}

// quantile returns the q-quantile of a sorted slice by linear
// interpolation between order statistics (the exact sample quantile, no
// bucketing — regressions are not hidden by bucket resolution).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

// benchSetup describes one measured engine configuration of the bench.
type benchSetup struct {
	label  string // row backend label
	kind   core.BackendKind
	opts   []core.Option
	daat   bool // evaluate document-at-a-time with topK
	topK   int  // ranking depth for the DAAT rows (0 = all, TAAT rows)
	skips  bool // record the skip counters on the row
	cached bool // warm the hot-path caches first, measure the repeat pass
}

// benchRow measures one (setup, collection, query set) cell: fresh
// engine, chill the OS cache, reset counters, then trace the query set
// in order (buffers warm across queries within a row, as in the
// paper's batch runs).
func (l *Lab) benchRow(b *Built, colName, qsName string, queries []collection.Query, set benchSetup) (BenchRow, error) {
	costs := l.Model.Costs()
	opts := append([]core.Option{core.WithAnalyzer(analyzer())}, set.opts...)
	eng, err := core.Open(b.FS, colName, set.kind, opts...)
	if err != nil {
		return BenchRow{}, err
	}
	defer eng.Close()
	b.FS.Chill()
	mode := core.ModeTAAT
	if set.daat {
		mode = core.ModeDAAT
	}
	if set.cached {
		// Warm pass: populate the result and block caches, untimed and
		// outside the row's I/O window. The measured pass below is then
		// the repeat-query regime — the workload the paper's §2 query-
		// repetition analysis motivates caching for.
		for _, q := range queries {
			if _, err := eng.Run(nil, core.Request{Query: q.Text, TopK: set.topK, Mode: mode}); err != nil {
				return BenchRow{}, fmt.Errorf("experiments: bench %s/%s/%s warm: query %s: %w",
					set.label, colName, qsName, q.ID, err)
			}
		}
	}
	eng.ResetCounters()
	eng.Backend().ResetBufferStats()
	before := b.FS.Stats()

	stageUS := make(map[obs.Stage][]float64, len(obs.Stages()))
	var totalUS []float64
	for _, q := range queries {
		_, tr, err := eng.TraceRun(core.Request{Query: q.Text, TopK: set.topK, Mode: mode})
		if err != nil {
			return BenchRow{}, fmt.Errorf("experiments: bench %s/%s/%s: query %s: %w",
				set.label, colName, qsName, q.ID, err)
		}
		totals := tr.StageTotals()
		var totalNS int64
		for _, st := range obs.Stages() {
			tot := totals[st]
			ns := costs.SimNS(&tot.Counts)
			if st == obs.StageQuery {
				ns += costs.QueryNS
			}
			totalNS += ns
			stageUS[st] = append(stageUS[st], float64(ns)/1e3)
		}
		totalUS = append(totalUS, float64(totalNS)/1e3)
	}

	delta := b.FS.Stats().Sub(before)
	row := BenchRow{
		Backend:    set.label,
		Collection: colName,
		QuerySet:   qsName,
		Queries:    len(queries),
		DiskReads:  delta.DiskReads,
		BytesRead:  delta.BytesRead,
	}
	for _, st := range obs.Stages() {
		us := stageUS[st]
		sort.Float64s(us)
		row.Stages = append(row.Stages, BenchStage{
			Stage: st.String(),
			P50us: quantile(us, 0.50),
			P95us: quantile(us, 0.95),
			P99us: quantile(us, 0.99),
		})
	}
	sort.Float64s(totalUS)
	row.Stages = append(row.Stages, BenchStage{
		Stage: benchTotalStage,
		P50us: quantile(totalUS, 0.50),
		P95us: quantile(totalUS, 0.95),
		P99us: quantile(totalUS, 0.99),
	})
	bufs := eng.Backend().BufferStats()
	pools := make([]string, 0, len(bufs))
	for pool := range bufs {
		pools = append(pools, pool)
	}
	sort.Strings(pools)
	for _, pool := range pools {
		bs := bufs[pool]
		row.HitRates = append(row.HitRates, BenchHitRate{
			Pool: pool, Refs: bs.Refs, Hits: bs.Hits, Rate: bs.HitRate(),
		})
	}
	if set.skips {
		c := eng.Counters()
		row.Skips = &BenchSkips{
			Postings: c.PostingsSkipped,
			Blocks:   c.BlocksSkipped,
			Chunks:   c.ChunksSkipped,
		}
	}
	if set.cached {
		row.Cache = eng.Snapshot().Cache
	}
	return row, nil
}

// shardedLabel names a scatter-gather bench row.
func shardedLabel(n int) string {
	return fmt.Sprintf("%s (sharded x%d)", SysMnemeCache, n)
}

// benchShardedRow measures one scatter-gather cell: the query set traced
// against every shard engine of an n-way document-partitioned build.
// Per query, each stage's simulated time is the MAXIMUM over shards —
// the critical path of a parallel fan-out — while the I/O totals sum
// every shard's reads. This is what makes the sharded rows comparable
// to the single-engine rows: latency shrinks with n (each shard scores
// ~1/n of the postings) while total work does not.
func (l *Lab) benchShardedRow(sb *ShardedBuilt, qsName string, queries []collection.Query) (BenchRow, error) {
	costs := l.Model.Costs()
	plan := core.PlanForMaxList(sb.MaxList)
	engines, err := shard.OpenEngines([]*vfs.FS{sb.FS}, sb.Col.Name, sb.N, core.BackendMneme,
		core.WithAnalyzer(analyzer()), core.WithPlan(plan))
	if err != nil {
		return BenchRow{}, err
	}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	sb.FS.Chill()
	for _, e := range engines {
		e.ResetCounters()
		e.Backend().ResetBufferStats()
	}
	before := sb.FS.Stats()

	stageUS := make(map[obs.Stage][]float64, len(obs.Stages()))
	var totalUS []float64
	for _, q := range queries {
		worst := make(map[obs.Stage]int64, len(obs.Stages()))
		for _, eng := range engines {
			_, tr, err := eng.TraceRun(core.Request{Query: q.Text})
			if err != nil {
				return BenchRow{}, fmt.Errorf("experiments: bench %s/%s/%s: query %s: %w",
					shardedLabel(sb.N), sb.Col.Name, qsName, q.ID, err)
			}
			totals := tr.StageTotals()
			for _, st := range obs.Stages() {
				tot := totals[st]
				ns := costs.SimNS(&tot.Counts)
				if st == obs.StageQuery {
					ns += costs.QueryNS
				}
				if ns > worst[st] {
					worst[st] = ns
				}
			}
		}
		var totalNS int64
		for _, st := range obs.Stages() {
			totalNS += worst[st]
			stageUS[st] = append(stageUS[st], float64(worst[st])/1e3)
		}
		totalUS = append(totalUS, float64(totalNS)/1e3)
	}

	delta := sb.FS.Stats().Sub(before)
	row := BenchRow{
		Backend:    shardedLabel(sb.N),
		Collection: sb.Col.Name,
		QuerySet:   qsName,
		Queries:    len(queries),
		DiskReads:  delta.DiskReads,
		BytesRead:  delta.BytesRead,
	}
	for _, st := range obs.Stages() {
		us := stageUS[st]
		sort.Float64s(us)
		row.Stages = append(row.Stages, BenchStage{
			Stage: st.String(),
			P50us: quantile(us, 0.50),
			P95us: quantile(us, 0.95),
			P99us: quantile(us, 0.99),
		})
	}
	sort.Float64s(totalUS)
	row.Stages = append(row.Stages, BenchStage{
		Stage: benchTotalStage,
		P50us: quantile(totalUS, 0.50),
		P95us: quantile(totalUS, 0.95),
		P99us: quantile(totalUS, 0.99),
	})
	return row, nil
}

// RunBench traces the standard query mix of every matrix row under each
// bench system and distils per-stage simulated-latency quantiles, buffer
// hit rates, I/O totals, and skip counters. Beyond the term-at-a-time
// systems the paper measured, the SysMnemeCache configuration also runs
// two document-at-a-time rows against the chunked-collection variant —
// exhaustive ("Mneme, Cache (daat)") and MaxScore-pruned ("Mneme, Cache
// (pruned)") — whose stage latencies and skip counters quantify what
// block-format skipping saves. Each matrix row additionally gets
// document-partitioned scatter-gather rows ("Mneme, Cache (sharded
// xN)", N from ShardedBenchNs) whose critical-path latency model the
// CheckShardedScaling gate holds to its claim. Each collection's first
// query set further gets the paired near-real-time rows ("Mneme, Cache
// (nrt ingest)" / "(nrt idle)") measuring the write path and the query
// latency tax it imposes, held to budget by CheckNRTIngest.
func (l *Lab) RunBench(systems []System) (*BenchReport, error) {
	if len(systems) == 0 {
		systems = BenchSystems
	}
	topK := l.BenchTopK
	if topK <= 0 {
		topK = DefaultBenchTopK
	}
	report := &BenchReport{Schema: BenchSchema, Scale: l.Scale}
	for _, p := range matrix() {
		b, err := l.Collection(p.col)
		if err != nil {
			return nil, err
		}
		qs := b.Col.QuerySets[p.qs]
		queries := b.Col.GenQueries(qs)
		for _, sys := range systems {
			set := benchSetup{label: sys.String()}
			switch sys {
			case SysBTree:
				set.kind = core.BackendBTree
			case SysMnemeNoCache:
				set.kind = core.BackendMneme
				set.opts = []core.Option{core.WithPlan(core.NoCache)}
			case SysMnemeCache:
				set.kind = core.BackendMneme
				set.opts = []core.Option{core.WithPlan(PlanFor(b))}
			default:
				return nil, fmt.Errorf("experiments: unknown system %d", sys)
			}
			row, err := l.benchRow(b, p.col, qs.Name, queries, set)
			if err != nil {
				return nil, err
			}
			report.Rows = append(report.Rows, row)

			if sys != SysMnemeCache {
				continue
			}
			// The cached repeat-query row: same engine configuration as
			// the SysMnemeCache row plus the result and block caches,
			// measured on the second pass over the mix. CheckCachedRepeat
			// holds its query p50 strictly below the uncached row's.
			cachedRow, err := l.benchRow(b, p.col, qs.Name, queries, benchSetup{
				label: sys.String() + " (cached)",
				kind:  core.BackendMneme,
				opts: []core.Option{
					core.WithPlan(PlanFor(b)),
					core.WithResultCache(BenchResultCacheEntries),
					core.WithBlockCache(BenchBlockCacheMB),
				},
				cached: true,
			})
			if err != nil {
				return nil, err
			}
			report.Rows = append(report.Rows, cachedRow)
			cb, err := l.ChunkedCollection(p.col)
			if err != nil {
				return nil, err
			}
			base := []core.Option{
				core.WithPlan(PlanFor(cb)),
				core.WithChunking(ChunkPayloadBytes),
			}
			for _, ds := range []benchSetup{
				{label: sys.String() + " (daat)", kind: core.BackendMneme,
					opts: base, daat: true, topK: topK, skips: true},
				{label: sys.String() + " (pruned)", kind: core.BackendMneme,
					opts: append(append([]core.Option{}, base...), core.WithPruning()),
					daat: true, topK: topK, skips: true},
			} {
				row, err := l.benchRow(cb, p.col, qs.Name, queries, ds)
				if err != nil {
					return nil, err
				}
				report.Rows = append(report.Rows, row)
			}
		}
		for _, n := range ShardedBenchNs {
			sb, err := l.ShardedCollection(p.col, n)
			if err != nil {
				return nil, err
			}
			row, err := l.benchShardedRow(sb, qs.Name, queries)
			if err != nil {
				return nil, err
			}
			report.Rows = append(report.Rows, row)
		}
		// One NRT cell per collection: stream the corpus through the
		// write path with the first query set interleaved mid-ingest,
		// then quiesce and replay it for the idle baseline.
		if p.qs == 0 {
			nrtRows, err := l.benchNRTRows(b, qs.Name, queries)
			if err != nil {
				return nil, err
			}
			report.Rows = append(report.Rows, nrtRows...)
		}
	}
	return report, nil
}

// CheckShardedScaling enforces the sharded bench's headline claim: on
// every (collection, query set) that carries sharded rows, the
// score-stage p95 at the largest shard count must beat the single-shard
// (x1) row — the scatter-gather critical path genuinely shrinks as the
// postings are partitioned. Returns nil when the report has no sharded
// rows; errors list every cell that failed to scale.
func CheckShardedScaling(r *BenchReport) error {
	maxN := 0
	for _, n := range ShardedBenchNs {
		if n > maxN {
			maxN = n
		}
	}
	scoreP95 := func(row BenchRow) (float64, bool) {
		for _, s := range row.Stages {
			if s.Stage == obs.StageScore.String() {
				return s.P95us, true
			}
		}
		return 0, false
	}
	type cell struct{ col, qs string }
	single := make(map[cell]float64)
	widest := make(map[cell]float64)
	for _, row := range r.Rows {
		p95, ok := scoreP95(row)
		if !ok {
			continue
		}
		c := cell{row.Collection, row.QuerySet}
		switch row.Backend {
		case shardedLabel(1):
			single[c] = p95
		case shardedLabel(maxN):
			widest[c] = p95
		}
	}
	var bad []string
	for c, base := range single {
		cur, ok := widest[c]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: x%d row missing", c.col, c.qs, maxN))
			continue
		}
		if cur >= base {
			bad = append(bad, fmt.Sprintf("%s/%s: score p95 x%d %.1fµs !< x1 %.1fµs",
				c.col, c.qs, maxN, cur, base))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("sharded scaling gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CheckCachedRepeat enforces the caching layer's headline claim: every
// (collection, query set) cell that carries an uncached SysMnemeCache
// row must also carry its "(cached)" twin, the cached row's whole-query
// ("total") p50 must be strictly below the uncached one — repeat
// queries collapse to the cache lookup — and the row's cache block must
// prove the caches actually served (result hits and block hits both
// non-zero).
func CheckCachedRepeat(r *BenchReport) error {
	queryP50 := func(row BenchRow) (float64, bool) {
		for _, s := range row.Stages {
			if s.Stage == benchTotalStage {
				return s.P50us, true
			}
		}
		return 0, false
	}
	type cell struct{ col, qs string }
	uncached := make(map[cell]float64)
	cached := make(map[cell]BenchRow)
	for _, row := range r.Rows {
		c := cell{row.Collection, row.QuerySet}
		switch row.Backend {
		case SysMnemeCache.String():
			if p50, ok := queryP50(row); ok {
				uncached[c] = p50
			}
		case SysMnemeCache.String() + " (cached)":
			cached[c] = row
		}
	}
	var bad []string
	for c, base := range uncached {
		row, ok := cached[c]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: cached row missing", c.col, c.qs))
			continue
		}
		p50, ok := queryP50(row)
		if !ok {
			bad = append(bad, fmt.Sprintf("%s/%s: cached row has no query stage", c.col, c.qs))
			continue
		}
		if p50 >= base {
			bad = append(bad, fmt.Sprintf("%s/%s: cached query p50 %.1fµs !< uncached %.1fµs",
				c.col, c.qs, p50, base))
		}
		switch {
		case row.Cache == nil:
			bad = append(bad, fmt.Sprintf("%s/%s: cached row carries no cache stats", c.col, c.qs))
		case row.Cache.ResultHits == 0:
			bad = append(bad, fmt.Sprintf("%s/%s: result cache never hit", c.col, c.qs))
		case row.Cache.BlockHits == 0:
			bad = append(bad, fmt.Sprintf("%s/%s: block cache never hit", c.col, c.qs))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("cached-repeat gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// rowKey identifies a bench row across reports.
func rowKey(r BenchRow) string {
	return r.Backend + "/" + r.Collection + "/" + r.QuerySet
}

// CompareBench diffs a current report against a committed baseline and
// returns an error describing every stage whose p95 latency regressed
// by more than tol (0.20 = 20%). Reports must share schema and scale;
// rows present in the baseline must still exist. The same gate covers
// both bench formats: query rows (deterministic simulated-latency
// stages) and serve rows, whose Serve block is additionally gated —
// achieved QPS must not fall below baseline·(1−tol), the shed rate must
// not exceed baseline + tol, and transport errors must stay zero.
// Serve measurements are wall-clock, so serve baselines are gated with
// a generous tol (see cmd/loadgen -tol), not the query bench's 20%.
func CompareBench(base, cur *BenchReport, tol float64) error {
	if base.Schema != cur.Schema {
		return fmt.Errorf("bench schema mismatch: baseline %q vs current %q", base.Schema, cur.Schema)
	}
	if base.Scale != cur.Scale {
		return fmt.Errorf("bench scale mismatch: baseline %g vs current %g (regenerate the baseline at the current scale)", base.Scale, cur.Scale)
	}
	curRows := make(map[string]BenchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[rowKey(r)] = r
	}
	var bad []string
	for _, br := range base.Rows {
		cr, ok := curRows[rowKey(br)]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: row missing from current report", rowKey(br)))
			continue
		}
		curStages := make(map[string]BenchStage, len(cr.Stages))
		for _, s := range cr.Stages {
			curStages[s.Stage] = s
		}
		for _, bs := range br.Stages {
			cs, ok := curStages[bs.Stage]
			if !ok {
				bad = append(bad, fmt.Sprintf("%s/%s: stage missing from current report", rowKey(br), bs.Stage))
				continue
			}
			if bs.P95us > 0 && cs.P95us > bs.P95us*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s/%s: p95 %.1fµs -> %.1fµs (+%.0f%%, tolerance %.0f%%)",
					rowKey(br), bs.Stage, bs.P95us, cs.P95us,
					100*(cs.P95us/bs.P95us-1), 100*tol))
			}
		}
		if br.NRT != nil {
			switch {
			case cr.NRT == nil:
				bad = append(bad, fmt.Sprintf("%s: nrt block missing from current report", rowKey(br)))
			default:
				if br.NRT.DocsPerSec > 0 && cr.NRT.DocsPerSec < br.NRT.DocsPerSec*(1-tol) {
					bad = append(bad, fmt.Sprintf("%s: ingest %.2f docs/s -> %.2f (-%.0f%%, tolerance %.0f%%)",
						rowKey(br), br.NRT.DocsPerSec, cr.NRT.DocsPerSec,
						100*(1-cr.NRT.DocsPerSec/br.NRT.DocsPerSec), 100*tol))
				}
				// A zero-pause baseline stays zero: the flip window does
				// no I/O by construction, and the sim is deterministic.
				if cr.NRT.FlushPauseP95us > br.NRT.FlushPauseP95us*(1+tol) {
					bad = append(bad, fmt.Sprintf("%s: flush pause p95 %.1fµs -> %.1fµs (tolerance %.0f%%)",
						rowKey(br), br.NRT.FlushPauseP95us, cr.NRT.FlushPauseP95us, 100*tol))
				}
			}
		}
		if br.Serve == nil {
			continue
		}
		switch {
		case cr.Serve == nil:
			bad = append(bad, fmt.Sprintf("%s: serve block missing from current report", rowKey(br)))
		default:
			if br.Serve.QPS > 0 && cr.Serve.QPS < br.Serve.QPS*(1-tol) {
				bad = append(bad, fmt.Sprintf("%s: served QPS %.1f -> %.1f (-%.0f%%, tolerance %.0f%%)",
					rowKey(br), br.Serve.QPS, cr.Serve.QPS,
					100*(1-cr.Serve.QPS/br.Serve.QPS), 100*tol))
			}
			if cr.Serve.ShedRate > br.Serve.ShedRate+tol {
				bad = append(bad, fmt.Sprintf("%s: shed rate %.3f -> %.3f (tolerance +%.2f)",
					rowKey(br), br.Serve.ShedRate, cr.Serve.ShedRate, tol))
			}
			if cr.Serve.Errors > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d transport errors", rowKey(br), cr.Serve.Errors))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench regression vs baseline:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CheckReplicaKill enforces the replicated serve bench's availability
// claim: a run measured while one replica of every shard is dead must
// finish with zero transport errors and keep at least minRatio of the
// healthy run's QPS — failover absorbs the kill instead of surfacing
// it. Both rows are matched by backend label within the same report and
// must carry serve blocks.
func CheckReplicaKill(r *BenchReport, healthyLabel, killedLabel string, minRatio float64) error {
	find := func(label string) (BenchRow, error) {
		for _, row := range r.Rows {
			if row.Backend == label && row.Serve != nil {
				return row, nil
			}
		}
		return BenchRow{}, fmt.Errorf("replica-kill gate: no serve row labelled %q in report", label)
	}
	healthy, err := find(healthyLabel)
	if err != nil {
		return err
	}
	killed, err := find(killedLabel)
	if err != nil {
		return err
	}
	var bad []string
	if killed.Serve.Errors > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d transport errors with a replica down (want 0)",
			rowKey(killed), killed.Serve.Errors))
	}
	if killed.Serve.Failed > 0 {
		bad = append(bad, fmt.Sprintf("%s: %d HTTP 5xx with a replica down (want 0 — failover must absorb the kill)",
			rowKey(killed), killed.Serve.Failed))
	}
	if healthy.Serve.QPS > 0 && killed.Serve.QPS < healthy.Serve.QPS*minRatio {
		bad = append(bad, fmt.Sprintf("%s: QPS %.1f < %.2f x healthy %.1f (%s)",
			rowKey(killed), killed.Serve.QPS, minRatio, healthy.Serve.QPS, rowKey(healthy)))
	}
	if len(bad) > 0 {
		return fmt.Errorf("replica-kill gate failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
