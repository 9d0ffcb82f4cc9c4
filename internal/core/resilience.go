package core

import "repro/internal/resilience"

// initResilience wires the engine's retry and breaker options into the
// storage layers at Open time (the admission gate is the query front's;
// see initFront). Everything here is opt-in: with no resilience
// options the engine carries nil fields and the hot paths pay only nil
// checks, so default behaviour — including which error a fault surfaces
// as and the benchmark cost profile — is exactly the pre-resilience
// engine.
func (e *Engine) initResilience() {
	o := &e.opts
	if o.RetryAttempts > 1 {
		p := resilience.DefaultRetryPolicy()
		p.MaxAttempts = o.RetryAttempts
		e.retry = resilience.NewRetry(p)
		e.retry.OnRetry = func() { e.met.retried.Add(1) }
	}
	var bp resilience.BreakerPolicy
	if o.BreakerThreshold > 0 {
		bp = resilience.BreakerPolicy{
			FailureThreshold: o.BreakerThreshold,
			Cooldown:         o.BreakerCooldown,
		}
		if bp.Cooldown <= 0 {
			bp.Cooldown = resilience.DefaultBreakerPolicy().Cooldown
		}
	}
	if e.retry != nil || bp.FailureThreshold > 0 {
		switch b := e.backend.(type) {
		case *mnemeBackend:
			b.store.SetResilience(e.retry, bp)
		case *btreeBackend:
			g := &resilience.Guard{Label: "btree", Retry: e.retry}
			if bp.FailureThreshold > 0 {
				e.treeBreaker = resilience.NewBreaker(bp)
				g.Breaker = e.treeBreaker
			}
			b.tree.SetResilience(g)
		}
	}
}

// breakerSnaps collects the backend's circuit-breaker snapshots, keyed
// by pool name ("btree" for the B-tree's single file breaker).
func (e *Engine) breakerSnaps() map[string]resilience.BreakerSnap {
	switch b := e.backend.(type) {
	case *mnemeBackend:
		return b.store.BreakerSnaps()
	case *btreeBackend:
		if e.treeBreaker != nil {
			return map[string]resilience.BreakerSnap{"btree": e.treeBreaker.Snap()}
		}
	}
	return nil
}

// ResilienceStats summarizes the engine's request-lifecycle resilience
// state for the unified snapshot: retry recoveries, deadline and shed
// counts, gate occupancy, and per-pool breaker states.
type ResilienceStats struct {
	RetriedReads int64                             `json:"retried_reads"`
	DeadlineHits int64                             `json:"deadline_hits"`
	Shed         int64                             `json:"shed"`
	MaxInFlight  int                               `json:"max_in_flight,omitempty"`
	InFlight     int                               `json:"in_flight,omitempty"`
	Breakers     map[string]resilience.BreakerSnap `json:"breakers,omitempty"`
}

// Health is an index's serving-fitness summary, reported by /healthz.
// Serving=false means the index cannot currently answer any query —
// for a single engine, every storage-pool breaker is open; for a
// sharded index, the open breakers make quorum unreachable.
type Health struct {
	// Docs is the index's document count.
	Docs int `json:"docs"`
	// Serving reports whether the index can answer queries right now.
	Serving bool `json:"serving"`
	// Breakers maps each storage pool (or shard) to its breaker state.
	// Empty when no breaker is armed.
	Breakers map[string]string `json:"breakers,omitempty"`
}

// Health reports the engine's serving fitness: it stops serving only
// when breakers are armed and every one of them is open (every pool
// fails fast, so no query can touch storage).
func (e *Engine) Health() Health { return healthOf(e.NumDocs(), e.breakerSnaps()) }

// healthOf derives a Health from an index's breaker snapshots.
func healthOf(docs int, snaps map[string]resilience.BreakerSnap) Health {
	h := Health{Docs: docs, Serving: true}
	if len(snaps) == 0 {
		return h
	}
	h.Breakers = make(map[string]string, len(snaps))
	allOpen := true
	for name, s := range snaps {
		h.Breakers[name] = s.State
		if s.State != resilience.Open.String() {
			allOpen = false
		}
	}
	h.Serving = !allOpen
	return h
}

// ResilienceStats returns the current resilience summary, or nil when
// no resilience option (WithMaxInFlight, WithRetry, WithBreaker) was
// given — which keeps Snapshot JSON byte-identical for plain engines.
func (e *Engine) ResilienceStats() *ResilienceStats {
	return e.resilienceStats(e.Counters(), e.breakerSnaps)
}

// resilienceStats assembles the summary from the topology's aggregate
// counters and breaker snapshots plus the front's gate occupancy, or
// returns nil when no resilience option is active.
func (f *queryFront) resilienceStats(c Counters, breakers func() map[string]resilience.BreakerSnap) *ResilienceStats {
	if f.gate == nil && f.opts.RetryAttempts <= 1 && f.opts.BreakerThreshold <= 0 {
		return nil
	}
	rs := &ResilienceStats{
		RetriedReads: c.RetriedReads,
		DeadlineHits: c.DeadlineHits,
		Shed:         c.Shed,
		Breakers:     breakers(),
	}
	if f.gate != nil {
		rs.MaxInFlight = f.gate.Max()
		rs.InFlight = f.gate.InFlight()
	}
	return rs
}
