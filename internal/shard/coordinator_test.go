package shard

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/resilience"
	"repro/internal/vfs"
)

// expectSurvivors computes the exact merged ranking over the
// non-excluded shards by querying each shard engine directly — the
// oracle a fault-degraded coordinator response is compared against.
func expectSurvivors(t *testing.T, idx *Index, req core.Request, exclude map[int]bool) []core.Result {
	t.Helper()
	n := idx.Shards()
	var merged []core.Result
	for i, e := range idx.Engines() {
		if exclude[i] {
			continue
		}
		resp, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("oracle shard %d: %v", i, err)
		}
		for _, r := range resp.Results {
			merged = append(merged, core.Result{Doc: GlobalDoc(r.Doc, i, n), Score: r.Score})
		}
	}
	inference.SortRanking(merged)
	if req.TopK > 0 && len(merged) > req.TopK {
		merged = merged[:req.TopK]
	}
	return merged
}

func sameRanking(t *testing.T, label string, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: got doc %d score %.17g, want doc %d score %.17g",
				label, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
		}
	}
}

// TestCoordinatorCancelNoLeak cancels requests mid-fanout and checks
// that nothing survives: no leaked searcher goroutines and every
// admission-gate slot returned.
func TestCoordinatorCancelNoLeak(t *testing.T) {
	docs := shardCorpus()
	fs := newFS()
	opt := core.BuildOptions{Analyzer: plainAnalyzer(), Backends: []core.BackendKind{core.BackendMneme}}
	if _, err := Build([]*vfs.FS{fs}, "c", 4, &core.SliceDocs{Docs: docs}, opt); err != nil {
		t.Fatalf("build: %v", err)
	}
	engines, err := OpenEngines([]*vfs.FS{fs}, "c", 4, core.BackendMneme,
		core.WithAnalyzer(plainAnalyzer()), core.WithMaxInFlight(2, time.Second))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	idx, err := NewIndex("c", engines, Config{DisableHedge: true})
	if err != nil {
		t.Fatalf("new index: %v", err)
	}
	req := core.Request{Query: "#or(w1 w2 w3 w4 w5)", TopK: 10, Mode: core.ModeDAAT}

	// Warm up, then take the goroutine baseline.
	if _, err := idx.Run(context.Background(), req); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	before := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		switch i % 3 {
		case 0:
			cancel() // dead before dispatch
		case 1:
			go cancel() // races the fan-out
		default:
			time.AfterFunc(100*time.Microsecond, cancel)
		}
		resp, err := idx.Run(ctx, req)
		cancel()
		// A cancelled request must resolve to a typed outcome, never
		// panic or hang: either it finished in time (OK) or it reports
		// the deadline with whatever merged partial it had.
		if err != nil && !errors.Is(err, resilience.ErrDeadline) && !errors.Is(err, resilience.ErrNoQuorum) {
			t.Fatalf("run %d: untyped error %v", i, err)
		}
		if err == nil && resp.Outcome != core.OutcomeOK && resp.Outcome != core.OutcomeDegraded {
			t.Fatalf("run %d: err nil but outcome %s", i, resp.Outcome)
		}
	}

	// Every gate slot must have been returned.
	deadline := time.Now().Add(2 * time.Second)
	for {
		busy := 0
		for _, e := range engines {
			if rs := e.ResilienceStats(); rs != nil {
				busy += rs.InFlight
			}
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate slots still held: %d in flight", busy)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the goroutine count must settle back to the baseline.
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgedRead stalls one shard's primary attempt via the in-package
// test hook, so the hedged backup fires deterministically and wins; the
// merged ranking must still be exact and Coverage must account for the
// hedge.
func TestHedgedRead(t *testing.T) {
	docs := shardCorpus()
	idx, _ := buildSharded(t, docs, 4, core.BackendMneme, Config{HedgeAfter: time.Millisecond})
	req := core.Request{Query: "w1 w2 w3", TopK: 10}
	want, err := idx.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	idx.testAttemptHook = func(ctx context.Context, shard int, hedge bool) {
		if shard == 2 && !hedge {
			<-ctx.Done() // primary stalls until the winner cancels it
		}
	}
	resp, err := idx.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("hedged run: %v", err)
	}
	if resp.Outcome != core.OutcomeOK {
		t.Fatalf("outcome %s, want ok", resp.Outcome)
	}
	sameRanking(t, "hedged", resp.Results, want.Results)
	// Shard 2's stalled primary guarantees its hedge fired and won;
	// under a slow scheduler (-race) other shards may cross the 1ms
	// delay too, so the tallies are lower bounds, not exact counts.
	if resp.Coverage.Hedged < 1 || resp.Coverage.HedgeWins < 1 {
		t.Fatalf("coverage hedged=%d wins=%d, want >=1/>=1", resp.Coverage.Hedged, resp.Coverage.HedgeWins)
	}

	// The mirror case: the hedge stalls, the primary wins the race.
	idx.testAttemptHook = func(ctx context.Context, shard int, hedge bool) {
		if hedge {
			<-ctx.Done()
		}
		if shard == 2 && !hedge {
			time.Sleep(5 * time.Millisecond) // long enough for the timer
		}
	}
	resp, err = idx.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("hedge-loss run: %v", err)
	}
	sameRanking(t, "hedge-loss", resp.Results, want.Results)
	if resp.Coverage.Hedged < 1 || resp.Coverage.HedgeWins != 0 {
		t.Fatalf("coverage hedged=%d wins=%d, want >=1/0", resp.Coverage.Hedged, resp.Coverage.HedgeWins)
	}
	idx.testAttemptHook = nil

	snap := idx.Snapshot()
	if snap.Sharding == nil || snap.Sharding.Hedged < 2 || snap.Sharding.HedgeWins < 1 {
		t.Fatalf("snapshot sharding block %+v, want hedged>=2 wins>=1", snap.Sharding)
	}
}

// TestHedgeDelayDerivation covers the p95 window and clamping.
func TestHedgeDelayDerivation(t *testing.T) {
	w := &latWindow{}
	if w.p95() != 0 {
		t.Fatal("empty window: want 0")
	}
	for i := 0; i < hedgeMinSamples-1; i++ {
		w.observe(time.Millisecond)
	}
	if w.p95() != 0 {
		t.Fatalf("below minimum samples: want 0, got %v", w.p95())
	}
	w.observe(time.Millisecond)
	if w.p95() != time.Millisecond {
		t.Fatalf("uniform window: want 1ms, got %v", w.p95())
	}
	for i := 1; i <= 100; i++ {
		w.observe(time.Duration(i) * time.Millisecond)
	}
	// The ring holds the last 64 samples (37ms..100ms); the p95 index
	// over 64 sorted samples is 60, so 97ms.
	if got := w.p95(); got != 97*time.Millisecond {
		t.Fatalf("p95 = %v, want 97ms", got)
	}

	docs := shardCorpus()
	idx, _ := buildSharded(t, docs, 2, core.BackendMneme, Config{
		HedgeMin: 4 * time.Millisecond, HedgeMax: 10 * time.Millisecond, HedgeFactor: 3,
	})
	if d := idx.hedgeDelay(0); d != 0 {
		t.Fatalf("cold shard: want 0 (no samples), got %v", d)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		idx.lat[0].observe(100 * time.Microsecond) // 3×p95 below HedgeMin
		idx.lat[1].observe(50 * time.Millisecond)  // 3×p95 above HedgeMax
	}
	if d := idx.hedgeDelay(0); d != 4*time.Millisecond {
		t.Fatalf("clamp to HedgeMin: got %v", d)
	}
	if d := idx.hedgeDelay(1); d != 10*time.Millisecond {
		t.Fatalf("clamp to HedgeMax: got %v", d)
	}
	idx.cfg.DisableHedge = true
	if d := idx.hedgeDelay(1); d != 0 {
		t.Fatalf("disabled: want 0, got %v", d)
	}
}

// TestBreakerSkipsShard trips one shard's breaker and checks the
// quorum policies against it: quorum(3) serves an exact partial,
// all fails typed, and the breaker heals through its half-open probe.
func TestBreakerSkipsShard(t *testing.T) {
	docs := shardCorpus()
	cfg := Config{
		DisableHedge: true,
		Policy:       PolicyQuorum(3),
		Breaker:      resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: 3},
	}
	idx, _ := buildSharded(t, docs, 4, core.BackendMneme, cfg)
	req := core.Request{Query: "w1 w2 w3", TopK: 10}

	idx.Breaker(1).Observe(false) // trip shard 1
	resp, err := idx.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if resp.Outcome != core.OutcomePartial {
		t.Fatalf("outcome %s, want partial", resp.Outcome)
	}
	cov := resp.Coverage
	if cov.Answered != 3 || cov.BreakerOpen != 1 || len(cov.MissingShards) != 1 || cov.MissingShards[0] != 1 {
		t.Fatalf("bad coverage %+v", cov)
	}
	sameRanking(t, "breaker partial", resp.Results, expectSurvivors(t, idx, req, map[int]bool{1: true}))

	// Under "all" the same loss is a typed quorum failure.
	strict, err := NewIndex("c", idx.Engines(), Config{
		DisableHedge: true, Policy: PolicyAll(),
		Breaker: resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: 1000},
	})
	if err != nil {
		t.Fatalf("new strict index: %v", err)
	}
	strict.Breaker(2).Observe(false)
	resp, err = strict.Run(context.Background(), req)
	if !errors.Is(err, resilience.ErrNoQuorum) {
		t.Fatalf("all-policy loss: err %v, want ErrNoQuorum", err)
	}
	if resp.Outcome != core.OutcomeError {
		t.Fatalf("all-policy loss: outcome %s, want error", resp.Outcome)
	}

	// The tripped breaker heals: its cooldown is counted in rejected
	// calls, then a half-open probe (a healthy shard query) closes it.
	want := expectSurvivors(t, idx, req, nil)
	for i := 0; i < 10; i++ {
		resp, err = idx.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("heal run %d: %v", i, err)
		}
		if resp.Outcome == core.OutcomeOK {
			break
		}
	}
	if resp.Outcome != core.OutcomeOK {
		t.Fatalf("breaker never healed: outcome %s, coverage %+v", resp.Outcome, resp.Coverage)
	}
	sameRanking(t, "healed", resp.Results, want)
}

// TestShardedHealth: serving fitness tracks whether the non-open
// breakers still leave quorum reachable.
func TestShardedHealth(t *testing.T) {
	docs := shardCorpus()
	idx, _ := buildSharded(t, docs, 4, core.BackendMneme, Config{
		DisableHedge: true,
		Policy:       PolicyQuorum(3),
		Breaker:      resilience.BreakerPolicy{FailureThreshold: 1, Cooldown: 1000},
	})
	h := idx.Health()
	if !h.Serving || h.Docs != len(docs) || len(h.Breakers) != 4 {
		t.Fatalf("healthy index: %+v", h)
	}
	idx.Breaker(0).Observe(false)
	if h = idx.Health(); !h.Serving {
		t.Fatalf("one breaker open, quorum 3 of 4: still serving, got %+v", h)
	}
	idx.Breaker(3).Observe(false)
	h = idx.Health()
	if h.Serving {
		t.Fatalf("two breakers open, quorum 3 of 4: want not serving, got %+v", h)
	}
	if h.Breakers["shard0"] != "open" || h.Breakers["shard1"] != "closed" {
		t.Fatalf("breaker states %+v", h.Breakers)
	}
}

// TestShardedSnapshot: the aggregated snapshot carries the sharding
// block with per-shard tallies and deduplicated I/O.
func TestShardedSnapshot(t *testing.T) {
	docs := shardCorpus()
	idx, _ := buildSharded(t, docs, 4, core.BackendMneme, Config{DisableHedge: true, Policy: PolicyQuorum(3)})
	for i := 0; i < 3; i++ {
		if _, err := idx.Run(context.Background(), core.Request{Query: "w1 w2", TopK: 5}); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	s := idx.Snapshot()
	sh := s.Sharding
	if sh == nil {
		t.Fatal("no sharding block")
	}
	if sh.Shards != 4 || sh.Quorum != 3 || sh.Policy != "quorum(3)" {
		t.Fatalf("sharding header %+v", sh)
	}
	if len(sh.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d entries", len(sh.PerShard))
	}
	total := 0
	for i, st := range sh.PerShard {
		total += st.Docs
		if st.Breaker != "closed" {
			t.Fatalf("shard %d breaker %q", i, st.Breaker)
		}
		if st.Answered != 3 {
			t.Fatalf("shard %d answered %d, want 3", i, st.Answered)
		}
	}
	if total != len(docs) {
		t.Fatalf("per-shard docs sum %d, want %d", total, len(docs))
	}
	if s.Counters.Queries == 0 {
		t.Fatal("aggregated counters empty")
	}
}
