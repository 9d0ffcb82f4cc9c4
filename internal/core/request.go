package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/inference"
	"repro/internal/resilience"
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
// request body) — reduces to a Request handed to Searcher.Run.
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

// Run evaluates one Request. It is the single query entry point; the
// batch driver and TraceRun reduce to it. The contract:
//
//   - If the engine has an admission gate (WithMaxInFlight) and the
//     request is shed, no evaluation happens: OutcomeShed, an error
//     chaining to resilience.ErrShed, and a counter delta recording
//     the shed (not a query).
//   - If Request.Deadline is positive, Run derives a per-request
//     context deadline from ctx (nil ctx allowed). A request cut short
//     — by that budget or by ctx itself — returns the partial ranking
//     with OutcomeDeadline and an error chaining to
//     resilience.ErrDeadline: a truncated ranking is always labelled.
//   - Request.Degraded and Request.Prune act as per-request overrides
//     OR-ed with the engine-level WithDegraded / WithPruning options.
//   - Response.Counters is this request's own work delta, so callers
//     (the HTTP layer, the bench) report per-request work without
//     diffing engine aggregates.
//   - On an engine opened WithResultCache, a request whose CanonicalKey
//     was answered completely (OutcomeOK) since the last index mutation
//     is served from memory: the delta records one query and one
//     ResultCacheHits and nothing else — no lookups, no fetched bytes,
//     no postings. Score-floored requests (MinScore > 0, the shard
//     coordinator's seeded sub-queries) bypass the cache entirely.
func (s *Searcher) Run(ctx context.Context, req Request) (Response, error) {
	if req.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}
	rc := s.e.results
	cacheable := rc != nil && req.MinScore == 0
	var key string
	if cacheable {
		key = req.CanonicalKey()
		if res, ok := rc.get(key); ok {
			before := s.counters
			s.counters.Queries++
			s.counters.ResultCacheHits++
			delta := s.counters.Sub(before)
			s.flush()
			return Response{Results: res, Counters: delta, Outcome: OutcomeOK}, nil
		}
	}
	before := s.counters
	res, err := s.evaluate(ctx, req)
	delta := s.counters.Sub(before)
	resp := Response{Results: res, Counters: delta, Outcome: outcomeOf(err, delta)}
	if cacheable && err == nil && resp.Outcome == OutcomeOK {
		rc.put(key, res)
	}
	return resp, err
}

// evaluate runs the request through admission, normalization,
// reservation, and the selected evaluator. Counter flushing and
// iterator settlement happen on the way out, so the caller's delta is
// complete when evaluate returns.
func (s *Searcher) evaluate(ctx context.Context, req Request) ([]Result, error) {
	if g := s.e.gate; g != nil {
		if err := g.Acquire(ctx); err != nil {
			if errors.Is(err, resilience.ErrShed) {
				s.counters.Shed++
			} else {
				s.counters.DeadlineHits++
			}
			s.flush()
			return nil, fmt.Errorf("core: query not admitted: %w", err)
		}
		defer g.Release()
	}
	s.deadlined = false
	s.reqDegraded, s.reqPrune = req.Degraded, req.Prune
	defer func() { s.reqDegraded, s.reqPrune = false, false }()
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
		defer func() { s.ctx = nil }()
	}
	n, err := s.e.normalizeQuery(req.Query)
	if err != nil {
		return nil, err
	}
	s.counters.Queries++
	defer s.flush()
	defer s.finishIters()
	if n == nil {
		return nil, nil
	}
	pin := s.e.reserve(n)
	defer pin.Release()
	var res []Result
	switch {
	case req.Mode == ModeDAAT && (s.e.opts.Prune || s.reqPrune):
		res, err = inference.EvaluateMaxScoreFloor(n, s, req.TopK, req.MinScore)
	case req.Mode == ModeDAAT:
		res, err = inference.EvaluateDAAT(n, s, req.TopK)
	default:
		res, err = inference.EvaluateTAAT(n, s, req.TopK)
	}
	if err == nil && s.deadlined {
		err = fmt.Errorf("core: query cut short: %w (%w)", resilience.ErrDeadline, s.ctx.Err())
	}
	return res, err
}

// Run evaluates one Request on an implicit per-call Searcher. It is
// safe for concurrent use; see Searcher.Run for the contract.
func (e *Engine) Run(ctx context.Context, req Request) (Response, error) {
	return e.Acquire().Run(ctx, req)
}
