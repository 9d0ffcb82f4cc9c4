package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// batchConfig holds batch-driver settings.
type batchConfig struct {
	parallelism int
	topK        int
	timeout     time.Duration
}

// BatchOption configures SearchBatch.
type BatchOption func(*batchConfig)

// Parallelism sets the number of worker goroutines evaluating queries
// (default 1, the paper's serial protocol). Each worker runs its own
// Searcher over the shared engine.
func Parallelism(n int) BatchOption {
	return func(c *batchConfig) {
		if n > 0 {
			c.parallelism = n
		}
	}
}

// TopK bounds each query's result list (default 0: all documents).
func TopK(k int) BatchOption {
	return func(c *batchConfig) { c.topK = k }
}

// QueryTimeout gives every query in the batch its own deadline. An
// expired query contributes its partial ranking (tagged in the driver's
// per-query outcome, or silently truncated-and-counted for SearchBatch —
// see Counters.DeadlineHits) and the batch moves on.
func QueryTimeout(d time.Duration) BatchOption {
	return func(c *batchConfig) { c.timeout = d }
}

// resilienceOutcome reports whether an error is a typed per-query
// resilience condition — shed by admission control or cut short by a
// deadline — rather than a hard failure. Typed conditions are expected
// under load and never abort a batch.
func resilienceOutcome(err error) bool {
	return errors.Is(err, resilience.ErrShed) || errors.Is(err, resilience.ErrDeadline)
}

// SearchBatch evaluates queries over the engine and returns per-query
// rankings in query order: SearchBatchCtx's outcomes with the errors
// folded away. Typed resilience outcomes (shed, deadline — possible
// only under WithMaxInFlight or QueryTimeout) are not hard errors: the
// query keeps its partial (or, if shed, nil) ranking and the condition
// is counted in the engine counters. Every query is evaluated; the
// first hard error in query order is returned alongside all rankings.
// Use SearchBatchCtx to see the conditions per query.
func (e *Engine) SearchBatch(queries []string, opts ...BatchOption) ([][]Result, error) {
	out, _ := e.SearchBatchCtx(nil, queries, opts...) // a nil batch context never ends the run early
	results := make([][]Result, len(out))
	var firstErr error
	for i, o := range out {
		results[i] = o.Results
		if firstErr == nil && o.Err != nil && !resilienceOutcome(o.Err) {
			firstErr = o.Err
		}
	}
	return results, firstErr
}

// BatchOutcome is one query's result from SearchBatchCtx: the ranking
// (possibly partial) and the query's own error. Err chains to
// resilience.ErrShed when admission control rejected the query, to
// resilience.ErrDeadline when it was cut short (Results then holds the
// partial ranking), or carries the hard failure that aborted it.
type BatchOutcome struct {
	Results []Result
	Err     error
}

// SearchBatchCtx is the batch driver: workers pull queries from a
// shared feed, each on its own Searcher, and every query's individual
// outcome is reported in query order; rankings and aggregate counters
// are identical to a serial run. No query error — typed or hard — stops
// the feed. The pool runs min(Parallelism, len(queries), gate capacity)
// workers, so under WithMaxInFlight a batch never competes with itself
// for admission slots: only outside load can shed its queries. Only the
// batch context itself ends the run early, in which case the outcomes
// completed so far are returned together with ctx.Err(); unreached
// queries have nil Results and nil Err. The per-query context passed
// to each evaluation derives from ctx, bounded by QueryTimeout when set.
func (e *Engine) SearchBatchCtx(ctx context.Context, queries []string, opts ...BatchOption) ([]BatchOutcome, error) {
	cfg := batchConfig{parallelism: 1}
	for _, o := range opts {
		o(&cfg)
	}
	workers := min(cfg.parallelism, len(queries))
	if e.gate != nil {
		workers = min(workers, e.gate.Max())
	}
	batchDone := func() bool { return ctx != nil && ctx.Err() != nil }
	out := make([]BatchOutcome, len(queries))
	var (
		next atomic.Int64 // shared feed cursor
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.Acquire()
			for !batchDone() {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				resp, err := s.Run(ctx, Request{Query: queries[i], TopK: cfg.topK, Deadline: cfg.timeout})
				out[i] = BatchOutcome{Results: resp.Results, Err: err}
			}
		}()
	}
	wg.Wait()
	if batchDone() {
		return out, ctx.Err()
	}
	return out, nil
}
