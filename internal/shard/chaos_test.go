package shard

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/inference"
	"repro/internal/resilience"
	"repro/internal/vfs"
)

// soakRounds scales the storm length: default 4 rounds, SOAK_ROUNDS=n
// for the long soak (see `make soak`).
func soakRounds() int {
	if s := os.Getenv("SOAK_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// buildIsolated builds n shards each on its own FS — the blast-radius
// deployment, where a fault plan on one FS kills exactly one shard —
// and opens them without buffer caching so every query actually
// touches the (faultable) file system.
func buildIsolated(t *testing.T, docs []index.Doc, n int, cfg Config) (*Index, []*vfs.FS) {
	t.Helper()
	fss := make([]*vfs.FS, n)
	for i := range fss {
		fss[i] = newFS()
	}
	opt := core.BuildOptions{Analyzer: plainAnalyzer(), Backends: []core.BackendKind{core.BackendMneme}}
	if _, err := Build(fss, "c", n, &core.SliceDocs{Docs: docs}, opt); err != nil {
		t.Fatalf("build: %v", err)
	}
	engines, err := OpenEngines(fss, "c", n, core.BackendMneme,
		core.WithAnalyzer(plainAnalyzer()), core.WithPlan(core.NoCache))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	idx, err := NewIndex("c", engines, cfg)
	if err != nil {
		t.Fatalf("new index: %v", err)
	}
	return idx, fss
}

// TestShardCrashFreeze is the acceptance chaos scenario: crash-freeze
// one shard's disk mid-flight. Under quorum(n-1) the response must be
// a 200-class partial with accurate Coverage and the exact ranking
// over surviving shards; under "all" the same loss is a typed
// ErrNoQuorum failure. Healing the disk lets the breaker close again.
func TestShardCrashFreeze(t *testing.T) {
	docs := shardCorpus()
	idx, fss := buildIsolated(t, docs, 4, Config{
		DisableHedge:  true,
		Policy:        PolicyQuorum(3),
		RetryAttempts: 2,
		Breaker:       resilience.BreakerPolicy{FailureThreshold: 2, Cooldown: 2},
	})
	req := core.Request{Query: "#or(w21 w22 w23)", TopK: 10}
	wantPartial := expectSurvivors(t, idx, req, map[int]bool{2: true})

	fss[2].SetFaultPlan(vfs.NewFaultPlan(7).FailReadEvery(1).WithCrash())

	// First hit: the shard fails hard (retries exhausted against a
	// frozen disk) but quorum holds — a typed partial.
	resp, err := idx.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("crash run: %v", err)
	}
	if resp.Outcome != core.OutcomePartial {
		t.Fatalf("outcome %s, want partial (coverage %+v)", resp.Outcome, resp.Coverage)
	}
	cov := resp.Coverage
	if cov.Answered != 3 || cov.Failed != 1 || len(cov.MissingShards) != 1 || cov.MissingShards[0] != 2 {
		t.Fatalf("bad coverage %+v", cov)
	}
	sameRanking(t, "crash partial", resp.Results, wantPartial)

	// Second hit opens the breaker (threshold 2); the third request
	// must skip the dead shard without touching it.
	if _, err := idx.Run(context.Background(), req); err != nil {
		t.Fatalf("second crash run: %v", err)
	}
	resp, err = idx.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("breaker run: %v", err)
	}
	if resp.Outcome != core.OutcomePartial || resp.Coverage.BreakerOpen != 1 {
		t.Fatalf("breaker run: outcome %s coverage %+v, want partial with open breaker",
			resp.Outcome, resp.Coverage)
	}
	sameRanking(t, "breaker partial", resp.Results, wantPartial)

	// The same loss under "all" is a typed no-quorum failure.
	strict, err := NewIndex("c", idx.Engines(), Config{
		DisableHedge:  true,
		Policy:        PolicyAll(),
		RetryAttempts: 2,
		Breaker:       resilience.BreakerPolicy{FailureThreshold: 100, Cooldown: 2},
	})
	if err != nil {
		t.Fatalf("strict index: %v", err)
	}
	resp, err = strict.Run(context.Background(), req)
	if !errors.Is(err, resilience.ErrNoQuorum) {
		t.Fatalf("all-policy crash: err %v, want ErrNoQuorum", err)
	}
	// Fail-fast may cancel healthy in-flight shards once quorum is
	// impossible (they count as Failed casualties), so Answered is not
	// exactly n-1 — but the dead shard must be among the failures and
	// the coverage must account for every shard.
	cov = resp.Coverage
	if resp.Outcome != core.OutcomeError || cov.Failed < 1 ||
		cov.Answered+cov.Failed+cov.Shed+cov.BreakerOpen != 4 {
		t.Fatalf("all-policy crash: outcome %s coverage %+v", resp.Outcome, cov)
	}

	// Heal the disk; the open breaker's half-open probe readmits the
	// shard and the full exact ranking comes back.
	fss[2].SetFaultPlan(nil)
	for i := 0; i < 10 && resp.Outcome != core.OutcomeOK; i++ {
		resp, err = idx.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("heal run %d: %v", i, err)
		}
	}
	if resp.Outcome != core.OutcomeOK {
		t.Fatalf("breaker never healed: outcome %s coverage %+v", resp.Outcome, resp.Coverage)
	}
	sameRanking(t, "healed", resp.Results, expectSurvivors(t, idx, req, nil))
}

// TestShardKillStorm is the seeded shard-kill soak: every round
// crash-freezes a random shard's disk, fires a batch of mixed-mode
// queries, and requires every response to be exact-or-typed — a full
// exact ranking, a partial whose Coverage and merged ranking are both
// exactly right, or a typed no-quorum error. SOAK_ROUNDS scales it.
func TestShardKillStorm(t *testing.T) {
	docs := shardCorpus()
	const n = 4
	idx, fss := buildIsolated(t, docs, n, Config{
		DisableHedge:  true,
		Policy:        PolicyQuorum(n - 1),
		RetryAttempts: 2,
		Breaker:       resilience.BreakerPolicy{FailureThreshold: 2, Cooldown: 2},
	})
	reqs := []core.Request{
		{Query: "w1 w2 w3", TopK: 10},
		{Query: "#and(w5 w15 w25)", TopK: 10},
		{Query: "#or(w7 w17)", TopK: 10},
		{Query: "#wsum(3 w2 1 w40)", TopK: 10},
		{Query: "w0 w10", TopK: 10, Mode: core.ModeDAAT},
		{Query: "#syn(w5 w6)", TopK: 10, Mode: core.ModeDAAT},
		{Query: "#or(w3 w13 w23)", TopK: 10, Mode: core.ModeDAAT, Prune: true},
		{Query: "w2 w22", TopK: 10, Mode: core.ModeDAAT, Prune: true},
	}

	// Clean per-shard oracles, taken before any fault exists. NoCache
	// engines hold no state, so this warms nothing.
	oracle := make([][][]core.Result, len(reqs)) // query × shard → local results
	for qi, req := range reqs {
		oracle[qi] = make([][]core.Result, n)
		for sh, e := range idx.Engines() {
			resp, err := e.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("oracle q%d shard %d: %v", qi, sh, err)
			}
			oracle[qi][sh] = resp.Results
		}
	}
	merge := func(qi int, missing map[int]bool) []core.Result {
		var m []core.Result
		for sh := 0; sh < n; sh++ {
			if missing[sh] {
				continue
			}
			for _, r := range oracle[qi][sh] {
				m = append(m, core.Result{Doc: GlobalDoc(r.Doc, sh, n), Score: r.Score})
			}
		}
		inference.SortRanking(m)
		if len(m) > reqs[qi].TopK {
			m = m[:reqs[qi].TopK]
		}
		return m
	}

	rng := rand.New(rand.NewSource(41))
	rounds := soakRounds() * 3
	for round := 0; round < rounds; round++ {
		victim := rng.Intn(n)
		fss[victim].SetFaultPlan(vfs.NewFaultPlan(int64(round)*7 + 1).FailReadEvery(1).WithCrash())
		for j := 0; j < 4; j++ {
			qi := rng.Intn(len(reqs))
			resp, err := idx.Run(context.Background(), reqs[qi])
			cov := resp.Coverage
			switch {
			case err == nil && resp.Outcome == core.OutcomeOK:
				sameRanking(t, "storm full", resp.Results, merge(qi, nil))
			case err == nil && resp.Outcome == core.OutcomePartial:
				if cov == nil || cov.Answered+cov.Failed+cov.Shed+cov.BreakerOpen != n {
					t.Fatalf("round %d: coverage does not account for every shard: %+v", round, cov)
				}
				missing := map[int]bool{}
				for _, sh := range cov.MissingShards {
					missing[sh] = true
				}
				if len(missing) != n-cov.Answered {
					t.Fatalf("round %d: %d missing shards vs %d answered: %+v",
						round, len(missing), cov.Answered, cov)
				}
				sameRanking(t, "storm partial", resp.Results, merge(qi, missing))
			case errors.Is(err, resilience.ErrNoQuorum):
				// Typed: the victim plus a still-open breaker from an
				// earlier round can push losses past the policy.
			default:
				t.Fatalf("round %d q%d: untyped outcome %s err %v", round, qi, resp.Outcome, err)
			}
		}
		fss[victim].SetFaultPlan(nil)
	}

	// Recovery: with every disk healed, the breakers drain and the
	// index must return to serving full exact rankings.
	recovered := false
	for i := 0; i < 50 && !recovered; i++ {
		recovered = true
		for qi, req := range reqs {
			resp, err := idx.Run(context.Background(), req)
			if err != nil {
				if errors.Is(err, resilience.ErrNoQuorum) {
					recovered = false
					break
				}
				t.Fatalf("recovery: %v", err)
			}
			if resp.Outcome != core.OutcomeOK {
				recovered = false
				break
			}
			sameRanking(t, "recovered", resp.Results, merge(qi, nil))
		}
	}
	if !recovered {
		t.Fatal("index never recovered after the storm")
	}
	if h := idx.Health(); !h.Serving {
		t.Fatalf("recovered index reports unhealthy: %+v", h)
	}
}
