package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/textproc"
)

// Mode selects a Request's evaluation strategy.
type Mode uint8

const (
	// ModeTAAT evaluates term-at-a-time: every query term's posting
	// list is materialized and merged into the accumulator table — the
	// paper's protocol, and the zero value.
	ModeTAAT Mode = iota
	// ModeDAAT evaluates document-at-a-time over streaming iterators,
	// optionally under MaxScore pruning (Request.Prune).
	ModeDAAT
)

// String names the mode as the request API spells it.
func (m Mode) String() string {
	if m == ModeDAAT {
		return "daat"
	}
	return "taat"
}

// MarshalText implements encoding.TextMarshaler, so a Mode round-trips
// through a JSON request body as "taat" / "daat".
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler. The empty string
// selects ModeTAAT, matching the zero value.
func (m *Mode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "taat":
		*m = ModeTAAT
	case "daat":
		*m = ModeDAAT
	default:
		return fmt.Errorf("core: unknown evaluation mode %q", b)
	}
	return nil
}

// Request is the single description of one retrieval call. Every entry
// point — the CLIs, the batch driver, the bench harness, and the
// inqueryd HTTP server (which unmarshals this struct directly from the
// request body) — reduces to a Request handed to Run, and plain and NRT
// engines run it through the same lifecycle (admission, result cache,
// deadline, evaluation, accounting); only the view it is evaluated
// against differs.
type Request struct {
	// Query is the query text in the INQUERY operator language.
	Query string `json:"query"`
	// TopK bounds the ranking depth (<= 0 ranks every matching
	// document). Transport layers may apply their own default before
	// the request reaches Run.
	TopK int `json:"top_k,omitempty"`
	// Mode selects term-at-a-time (default) or document-at-a-time
	// evaluation.
	Mode Mode `json:"mode,omitempty"`
	// Deadline, when positive, gives this request its own evaluation
	// budget: Run derives a context deadline and a cut-short query
	// returns its partial ranking with OutcomeDeadline. Encoded in
	// JSON as nanoseconds (a Go time.Duration).
	Deadline time.Duration `json:"deadline_ns,omitempty"`
	// Degraded lets this request survive unreadable inverted-list
	// records (scored as absent, tallied in Counters.CorruptRecords)
	// even on an engine opened without WithDegraded.
	Degraded bool `json:"degraded,omitempty"`
	// Prune enables MaxScore dynamic pruning for ModeDAAT requests
	// even on an engine opened without WithPruning. The top-k is
	// identical to exhaustive evaluation.
	Prune bool `json:"prune,omitempty"`
	// MinScore, when positive, is a score floor for pruned evaluation:
	// documents provably scoring below it are discarded even before
	// the top-k heap fills, so the ranking may come back shorter than
	// TopK. The shard coordinator seeds late shards with the running
	// merged k-th score; only documents that could never reach the
	// final global top-k are dropped, keeping the merge exact. Ignored
	// outside pruned ModeDAAT evaluation.
	MinScore float64 `json:"min_score,omitempty"`
}

// CanonicalKey is the request's evaluation identity: two requests with
// equal keys are guaranteed byte-identical complete (OutcomeOK)
// rankings on an unchanged index. It folds the whitespace-normalized
// query text, the evaluation mode, the ranking depth (every non-positive
// TopK means "rank all"), and — when set — the MinScore floor. Deadline,
// Degraded, and Prune are deliberately excluded: they change how hard a
// request tries and how failures are labelled, never what a complete
// undamaged ranking contains (MaxScore pruning is exact by contract).
// This single definition is what the result cache keys by and what the
// serving layer deduplicates batch entries with, so the two can never
// disagree about which requests are "the same query".
func (r Request) CanonicalKey() string {
	q := strings.Join(strings.Fields(r.Query), " ")
	k := r.TopK
	if k < 0 {
		k = 0
	}
	key := q + "\x00" + r.Mode.String() + "\x00" + strconv.Itoa(k)
	if r.MinScore > 0 {
		key += "\x00" + strconv.FormatFloat(r.MinScore, 'g', -1, 64)
	}
	return key
}

// Outcome classifies how a request ended — the label transport layers
// map onto their status taxonomy (inqueryd: ok/degraded → 200, shed →
// 429, deadline → 504, error → 400/503/500 by error class).
type Outcome string

const (
	// OutcomeOK is a complete ranking with no damage observed.
	OutcomeOK Outcome = "ok"
	// OutcomeDegraded is a complete pass that skipped corrupt records:
	// the ranking covers every readable list, and the skips are
	// tallied in the response counters.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeDeadline is a partial ranking: the deadline (or the
	// caller's context) fired mid-evaluation and unscored terms read
	// as absent. The paired error chains to resilience.ErrDeadline.
	OutcomeDeadline Outcome = "deadline"
	// OutcomeShed means admission control rejected the request before
	// any evaluation. The paired error chains to resilience.ErrShed.
	OutcomeShed Outcome = "shed"
	// OutcomePartial is a sharded ranking missing one or more shards:
	// quorum was met, the returned ranking is exact over the shards
	// that answered, and Response.Coverage itemizes what was lost.
	// Single-engine requests never produce it.
	OutcomePartial Outcome = "partial"
	// OutcomeError is a hard failure: bad query syntax, storage
	// corruption on a strict engine, an open circuit breaker, or a
	// sharded request that lost its quorum.
	OutcomeError Outcome = "error"
)

// Partial reports whether the outcome carries results that may not
// reflect the complete collection.
func (o Outcome) Partial() bool {
	return o == OutcomeDegraded || o == OutcomeDeadline || o == OutcomePartial
}

// Coverage itemizes, for a response assembled from a sharded index,
// which shards contributed. Answered + Failed + Shed + BreakerOpen ==
// Shards; Degraded and the hedging tallies overlap Answered.
type Coverage struct {
	// Shards is the shard count of the index that served the request.
	Shards int `json:"shards"`
	// Answered is how many shards returned a usable ranking.
	Answered int `json:"answered"`
	// Degraded counts answered shards whose ranking was itself partial
	// (deadline slice expired or corrupt records skipped).
	Degraded int `json:"degraded,omitempty"`
	// Failed counts shards lost to hard errors after retries.
	Failed int `json:"failed,omitempty"`
	// Shed counts shards whose admission gate rejected the sub-query.
	Shed int `json:"shed,omitempty"`
	// BreakerOpen counts shards skipped outright because their
	// circuit breaker was open.
	BreakerOpen int `json:"breaker_open,omitempty"`
	// Hedged counts shards where a backup (hedged) sub-query was fired
	// after the straggler delay; HedgeWins counts those where the
	// backup came back first.
	Hedged    int `json:"hedged,omitempty"`
	HedgeWins int `json:"hedge_wins,omitempty"`
	// MissingShards lists the shard indexes absent from the ranking.
	MissingShards []int `json:"missing_shards,omitempty"`
}

// Response is a Request's full result: the ranking, the work this
// request performed (a per-request counter delta, not the engine
// aggregate), and the outcome label. Coverage is set only by the shard
// coordinator.
type Response struct {
	Results  []Result  `json:"results"`
	Counters Counters  `json:"counters"`
	Outcome  Outcome   `json:"outcome"`
	Coverage *Coverage `json:"coverage,omitempty"`
}

// outcomeOf derives the outcome label from a finished request's error
// and counter delta.
func outcomeOf(err error, delta Counters) Outcome {
	switch {
	case err == nil:
		if delta.CorruptRecords > 0 {
			return OutcomeDegraded
		}
		return OutcomeOK
	case errors.Is(err, resilience.ErrShed):
		return OutcomeShed
	case errors.Is(err, resilience.ErrDeadline),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return OutcomeDeadline
	default:
		return OutcomeError
	}
}

// queryFront is the request-facing state every engine topology shares:
// the resolved options, the analyzer, the admission gate, the hot-path
// caches, and the aggregate work counters and metrics each request
// feeds. Engine and NRTEngine both embed it, so a request runs through
// one lifecycle (run) whichever topology serves it; only the view it
// evaluates against differs (see queryTarget).
type queryFront struct {
	opts engineOptions
	an   *textproc.Analyzer

	// Admission control (WithMaxInFlight) and the hot-path caches
	// (WithBlockCache / WithResultCache — or, for blocks, an NRT-shared
	// instance), each nil unless configured.
	gate    *resilience.Gate
	blocks  *blockCache
	results *resultCache

	agg atomicCounters
	met *engineMetrics
}

// initFront resolves the front from an engine's options. It is the one
// place the analyzer default, the caches, the metrics registry and the
// gate (with its gate_wait_ns hook) are set up.
func (f *queryFront) initFront(opt engineOptions) {
	f.opts = opt
	f.an = opt.Analyzer
	if f.an == nil {
		f.an = textproc.NewAnalyzer()
	}
	f.met = newEngineMetrics()
	switch {
	case opt.sharedBlocks != nil:
		f.blocks = opt.sharedBlocks
	case opt.BlockCacheMB > 0:
		f.blocks = newBlockCache(int64(opt.BlockCacheMB) << 20)
	}
	if opt.ResultCacheEntries > 0 {
		f.results = newResultCache(opt.ResultCacheEntries)
	}
	if opt.MaxInFlight > 0 {
		f.gate = resilience.NewGate(opt.MaxInFlight, opt.QueueWait)
		f.gate.Observe = func(w time.Duration) { f.met.gateWait.Observe(int64(w)) }
	}
}

// Analyzer exposes the text analyzer (an NRT engine shares one across
// its segments).
func (f *queryFront) Analyzer() *textproc.Analyzer { return f.an }

// Metrics exposes the metrics registry (always on; populated with
// deterministic distributions by every search, plus the ingest counters
// and memtable gauges on an NRT engine).
func (f *queryFront) Metrics() *obs.Registry { return f.met.reg }

// account folds one request's counter delta into the front's
// aggregates and metrics.
func (f *queryFront) account(d Counters) {
	f.agg.add(d)
	f.met.observeQuery(d)
}

// normalize parses and normalizes a query string against the front's
// analyzer. A nil node means the query was entirely stop words.
func (f *queryFront) normalize(query string) (*inference.Node, error) {
	n, err := inference.Parse(query)
	if err != nil {
		return nil, err
	}
	return n.NormalizeTerms(func(t string) string {
		if f.an.IsStopWord(t) {
			return ""
		}
		return f.an.Normalize(t)
	}), nil
}

// queryTarget is the topology half of a request: what the shared
// lifecycle evaluates against. A plain engine's target is a Searcher,
// which is its own view; an NRT engine captures a view of its segments
// and memtable at a watermark for each admitted request.
type queryTarget interface {
	// cacheScope prefixes result-cache keys: empty for a plain engine,
	// the visibility watermark for NRT. It must not take the view lock.
	cacheScope() string
	// account records a request that never opened a view: a
	// result-cache hit or an admission failure.
	account(d Counters)
	// view captures the source one request evaluates against.
	view(ctx context.Context, req Request) queryView
}

// queryView is one request's evaluation source.
type queryView interface {
	inference.Source
	inference.StreamSource
	// work is the counter block the lifecycle charges the query to.
	work() *Counters
	// reserve pins the query's already-resident inverted lists.
	reserve(n *inference.Node) Pin
	// end settles the view — iterator skip statistics, pooled buffers,
	// aggregate feeds — and returns the request's counter delta and
	// whether its deadline cut evaluation short.
	end() (Counters, bool)
	// cacheScope is the result-cache scope the view evaluated at.
	cacheScope() string
}

// run evaluates one Request against a target; see Searcher.Run for
// the contract. The order — deadline, result-cache probe, gate,
// normalization, view, evaluator, cut-short label, cache put — is the
// same for every topology.
func (f *queryFront) run(ctx context.Context, req Request, t queryTarget) (Response, error) {
	if req.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	rc := f.results
	cacheable := rc != nil && req.MinScore == 0
	var key string
	if cacheable {
		key = req.CanonicalKey()
		if res, ok := rc.get(t.cacheScope() + key); ok {
			delta := Counters{Queries: 1, ResultCacheHits: 1}
			t.account(delta)
			return Response{Results: res, Counters: delta, Outcome: OutcomeOK}, nil
		}
	}
	res, delta, v, err := f.evaluate(ctx, req, t)
	resp := Response{Results: res, Counters: delta, Outcome: outcomeOf(err, delta)}
	if cacheable && err == nil && resp.Outcome == OutcomeOK {
		// Stored under the scope the query actually evaluated at (an NRT
		// watermark may have advanced past the one probed above).
		rc.put(v.cacheScope()+key, res)
	}
	return resp, err
}

// evaluate runs the request through admission, normalization, the
// target's view, reservation, and the selected evaluator. Reservations
// are released and the view settled on the way out, so the returned
// delta is complete; the view is nil when the request never got one
// (an error says why).
func (f *queryFront) evaluate(ctx context.Context, req Request, t queryTarget) (res []Result, delta Counters, v queryView, err error) {
	if g := f.gate; g != nil {
		if err := g.Acquire(ctx); err != nil {
			if errors.Is(err, resilience.ErrShed) {
				delta.Shed = 1
			} else {
				delta.DeadlineHits = 1
			}
			t.account(delta)
			return nil, delta, nil, fmt.Errorf("core: query not admitted: %w", err)
		}
		defer g.Release()
	}
	n, err := f.normalize(req.Query)
	if err != nil {
		return nil, delta, nil, err
	}
	v = t.view(ctx, req)
	defer func() {
		var cut bool
		delta, cut = v.end()
		if err == nil && cut {
			err = fmt.Errorf("core: query cut short: %w (%w)", resilience.ErrDeadline, ctx.Err())
		}
	}()
	v.work().Queries++
	if n == nil {
		return nil, delta, v, nil
	}
	defer v.reserve(n).Release()
	switch {
	case req.Mode == ModeDAAT && (f.opts.Prune || req.Prune):
		res, err = inference.EvaluateMaxScoreFloor(n, v, req.TopK, req.MinScore)
	case req.Mode == ModeDAAT:
		res, err = inference.EvaluateDAAT(n, v, req.TopK)
	default:
		res, err = inference.EvaluateTAAT(n, v, req.TopK)
	}
	return res, delta, v, err
}

// explain returns the belief breakdown a query assigns to one document,
// over the same normalization and view a Run would use.
func (f *queryFront) explain(query string, doc uint32, t queryTarget) (*inference.Explanation, error) {
	n, err := f.normalize(query)
	if err != nil {
		return nil, err
	}
	if n == nil {
		return &inference.Explanation{Op: "(all terms stopped)", Belief: 0}, nil
	}
	v := t.view(nil, Request{})
	defer v.end()
	return inference.Explain(n, v, doc)
}

// Run evaluates one Request. It is the single query entry point; the
// batch driver and TraceRun reduce to it, and NRTEngine.Run shares its
// lifecycle. The contract:
//
//   - If the engine has an admission gate (WithMaxInFlight) and the
//     request is shed, no evaluation happens: OutcomeShed, an error
//     chaining to resilience.ErrShed, and a counter delta recording
//     the shed (not a query).
//   - If Request.Deadline is positive, Run derives a per-request
//     context deadline from ctx (nil ctx allowed). A request cut short
//     — by that budget or by ctx itself — returns the partial ranking
//     with OutcomeDeadline and an error chaining to
//     resilience.ErrDeadline and the context's error: a truncated
//     ranking is always labelled.
//   - Request.Degraded and Request.Prune act as per-request overrides
//     OR-ed with the engine-level WithDegraded / WithPruning options.
//   - Response.Counters is this request's own work delta, so callers
//     (the HTTP layer, the bench) report per-request work without
//     diffing engine aggregates.
//   - On an engine opened WithResultCache, a request whose CanonicalKey
//     was answered completely (OutcomeOK) since the last index mutation
//     is served from memory, before admission: the delta records one
//     query and one ResultCacheHits and nothing else — no lookups, no
//     fetched bytes, no postings. Score-floored requests (MinScore > 0,
//     the shard coordinator's seeded sub-queries) bypass the cache
//     entirely.
func (s *Searcher) Run(ctx context.Context, req Request) (Response, error) {
	return s.e.run(ctx, req, s)
}

// Run evaluates one Request on an implicit per-call Searcher. It is
// safe for concurrent use; see Searcher.Run for the contract.
func (e *Engine) Run(ctx context.Context, req Request) (Response, error) {
	return e.Acquire().Run(ctx, req)
}
