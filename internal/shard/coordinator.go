package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mneme"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/vfs"
)

// Policy is a quorum policy: how many shards must answer before a
// sharded response counts as servable.
type Policy struct {
	kind policyKind
	k    int
}

type policyKind uint8

const (
	policyAll policyKind = iota
	policyQuorum
	policyBestEffort
)

// PolicyAll requires every shard (the zero value): losing any shard
// fails the request with resilience.ErrNoQuorum.
func PolicyAll() Policy { return Policy{kind: policyAll} }

// PolicyQuorum requires k shards to answer.
func PolicyQuorum(k int) Policy { return Policy{kind: policyQuorum, k: k} }

// PolicyBestEffort serves whatever answered, requiring only one shard
// — an empty index answers nothing useful, so total loss still fails.
func PolicyBestEffort() Policy { return Policy{kind: policyBestEffort} }

// ParsePolicy parses the CLI spelling: "all", "best-effort", or
// "quorum(k)" with integer k >= 1.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "all":
		return PolicyAll(), nil
	case "best-effort":
		return PolicyBestEffort(), nil
	}
	var k int
	if _, err := fmt.Sscanf(s, "quorum(%d)", &k); err == nil && k >= 1 &&
		s == fmt.Sprintf("quorum(%d)", k) {
		return PolicyQuorum(k), nil
	}
	return Policy{}, fmt.Errorf("shard: bad quorum policy %q (want all, best-effort, or quorum(k))", s)
}

// String returns the CLI spelling.
func (p Policy) String() string {
	switch p.kind {
	case policyBestEffort:
		return "best-effort"
	case policyQuorum:
		return fmt.Sprintf("quorum(%d)", p.k)
	default:
		return "all"
	}
}

// Required is the number of answering shards the policy demands of an
// n-shard index, clamped to [1, n].
func (p Policy) Required(n int) int {
	switch p.kind {
	case policyBestEffort:
		return 1
	case policyQuorum:
		if p.k < 1 {
			return 1
		}
		if p.k > n {
			return n
		}
		return p.k
	default:
		return n
	}
}

// Config tunes the coordinator. The zero value is serviceable: policy
// "all", default breaker, no retry, hedging derived from the per-shard
// p95.
type Config struct {
	// Policy is the quorum policy (see ParsePolicy).
	Policy Policy
	// RetryAttempts is the per-shard sub-query budget on hard errors:
	// total attempts, so values below 2 disable retry. Parse errors
	// are never retried.
	RetryAttempts int
	// Breaker is the per-shard circuit breaker policy. A zero
	// FailureThreshold selects resilience.DefaultBreakerPolicy. Every
	// shard always gets a breaker: fault isolation is not optional
	// here.
	Breaker resilience.BreakerPolicy
	// DeadlineFraction is the fraction of the request deadline granted
	// to each shard sub-query, reserving the rest for the merge.
	// Zero selects 0.9.
	DeadlineFraction float64
	// HedgeAfter, when positive, is a fixed straggler delay after
	// which a backup sub-query is fired at the same shard. Zero
	// derives the delay from the shard's observed p95 latency
	// (HedgeFactor × p95, clamped to [HedgeMin, HedgeMax]), once
	// enough samples exist.
	HedgeAfter time.Duration
	// HedgeFactor defaults to 3; HedgeMin to 2ms; HedgeMax to 250ms.
	HedgeFactor float64
	HedgeMin    time.Duration
	HedgeMax    time.Duration
	// DisableHedge turns hedged reads off entirely.
	DisableHedge bool
	// RepairBytesPerSec rate-limits online replica repair copies so a
	// rebuild cannot starve live queries of I/O. Zero means unpaced.
	RepairBytesPerSec int64
}

// latWindow is a fixed-size ring of recent sub-query latencies, the
// input to the p95-derived hedge delay.
type latWindow struct {
	mu      sync.Mutex
	samples [64]time.Duration
	n       int // total observed
}

// hedgeMinSamples is how many latency samples a shard needs before a
// p95-derived hedge delay is trusted.
const hedgeMinSamples = 8

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.samples[w.n%len(w.samples)] = d
	w.n++
	w.mu.Unlock()
}

// p95 returns the window's 95th-percentile latency, or 0 when fewer
// than hedgeMinSamples samples exist.
func (w *latWindow) p95() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < hedgeMinSamples {
		return 0
	}
	m := w.n
	if m > len(w.samples) {
		m = len(w.samples)
	}
	buf := make([]time.Duration, m)
	copy(buf, w.samples[:m])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(m*95+99)/100-1]
}

// shardTally is one shard's cumulative outcome counters.
type shardTally struct {
	answered atomic.Int64
	degraded atomic.Int64
	failed   atomic.Int64
	shed     atomic.Int64
}

// Index is the scatter-gather coordinator over a sharded collection's
// engines. It implements the serving layer's Index interface, so
// inqueryd serves a sharded index exactly as it serves a single
// engine. Fault isolation per shard: a circuit breaker (open breaker
// = shard skipped without touching it), a retry budget for hard
// errors, a deadline slice, and hedged duplicate reads for
// stragglers. The quorum policy decides whether a response missing
// shards is served as a typed partial (OutcomePartial + Coverage) or
// failed with resilience.ErrNoQuorum.
type Index struct {
	name     string
	sets     [][]*replica // sets[shard][replica]
	cfg      Config
	required int
	lat      []*latWindow // per shard: hedge-delay input, whichever replica served
	tally    []shardTally

	// owned indexes (OpenReplicated) close their engines on Close and
	// can rebuild them: reopen re-opens a replica's store after repair.
	owned      bool
	reopen     func(fs *vfs.FS, coll string) (*core.Engine, error)
	repairPace func(int)
	repairWG   sync.WaitGroup

	// testAttemptHook, when set (in-package tests only), runs at the
	// start of every attempt goroutine; it lets a test stall a primary
	// attempt so the hedged backup deterministically wins the race.
	testAttemptHook func(ctx context.Context, shard int, hedge bool)

	reg         *obs.Registry
	searches    *obs.Counter
	partials    *obs.Counter
	noQuorums   *obs.Counter
	hedges      *obs.Counter
	hedgeWins   *obs.Counter
	shardFail   *obs.Counter
	failovers   *obs.Counter
	repairs     *obs.Counter
	quarantines *obs.Counter
}

// applyConfigDefaults fills the zero-value Config knobs.
func applyConfigDefaults(cfg Config) Config {
	if cfg.Breaker.FailureThreshold < 1 {
		cfg.Breaker = resilience.DefaultBreakerPolicy()
	}
	if cfg.DeadlineFraction <= 0 || cfg.DeadlineFraction > 1 {
		cfg.DeadlineFraction = 0.9
	}
	if cfg.HedgeFactor <= 0 {
		cfg.HedgeFactor = 3
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 2 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 250 * time.Millisecond
	}
	return cfg
}

// newIndexFromEngines builds the coordinator over an n×r engine
// matrix. A nil engine marks a replica that failed verification at
// open: it starts quarantined and joins the routing table only after
// Repair. fss may be nil when every engine is non-nil (the FS then
// comes from the engine itself).
func newIndexFromEngines(name string, fss [][]*vfs.FS, engines [][]*core.Engine, cfg Config) (*Index, error) {
	n := len(engines)
	if n == 0 {
		return nil, errors.New("shard: no shard engines")
	}
	cfg = applyConfigDefaults(cfg)
	x := &Index{
		name:     name,
		sets:     make([][]*replica, n),
		cfg:      cfg,
		required: cfg.Policy.Required(n),
		lat:      make([]*latWindow, n),
		tally:    make([]shardTally, n),
		reg:      obs.NewRegistry(),
	}
	if cfg.RepairBytesPerSec > 0 {
		x.repairPace = vfs.PaceBytesPerSec(cfg.RepairBytesPerSec)
	}
	for i := range engines {
		x.lat[i] = &latWindow{}
		x.sets[i] = make([]*replica, len(engines[i]))
		for r, e := range engines[i] {
			rep := &replica{
				shard: i,
				idx:   r,
				coll:  ReplicaName(name, i, r),
				eng:   e,
				br:    resilience.NewBreaker(cfg.Breaker),
			}
			if e != nil {
				rep.fs = e.FS()
			}
			if fss != nil {
				rep.fs = replicaFSFor(fss, i, r)
			}
			if e == nil {
				rep.quarantined.Store(true)
			}
			x.sets[i][r] = rep
		}
	}
	x.searches = x.reg.Counter("shard_searches_total")
	x.partials = x.reg.Counter("shard_partial_total")
	x.noQuorums = x.reg.Counter("shard_no_quorum_total")
	x.hedges = x.reg.Counter("shard_hedged_total")
	x.hedgeWins = x.reg.Counter("shard_hedge_wins_total")
	x.shardFail = x.reg.Counter("shard_failures_total")
	x.failovers = x.reg.Counter("shard_failovers_total")
	x.repairs = x.reg.Counter("shard_replica_repairs_total")
	x.quarantines = x.reg.Counter("shard_replica_quarantines_total")
	return x, nil
}

// NewIndex builds the coordinator over an opened shard-engine set
// (see OpenEngines): one replica per shard, engines owned by the
// caller.
func NewIndex(name string, engines []*core.Engine, cfg Config) (*Index, error) {
	m := make([][]*core.Engine, len(engines))
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("shard: nil engine for shard %d", i)
		}
		m[i] = []*core.Engine{e}
	}
	return newIndexFromEngines(name, nil, m, cfg)
}

// Shards returns the shard count.
func (x *Index) Shards() int { return len(x.sets) }

// Replicas returns the per-shard replica count.
func (x *Index) Replicas() int { return len(x.sets[0]) }

// Engines exposes the replica-0 shard engines (tests, fault
// injection, back-compat). An entry is nil while that replica is
// quarantined.
func (x *Index) Engines() []*core.Engine {
	out := make([]*core.Engine, len(x.sets))
	for i, set := range x.sets {
		out[i] = set[0].engine()
	}
	return out
}

// Breaker exposes shard i's replica-0 circuit breaker (tests,
// observability).
func (x *Index) Breaker(i int) *resilience.Breaker { return x.sets[i][0].breaker() }

// ReplicaBreaker exposes the breaker of replica r of shard i.
func (x *Index) ReplicaBreaker(i, r int) *resilience.Breaker { return x.sets[i][r].breaker() }

// ReplicaState reports the routing state of replica r of shard i.
func (x *Index) ReplicaState(i, r int) ReplicaState { return x.sets[i][r].state() }

// anyEngine returns some live engine (every engine reports the shared
// collection-global statistics, so any will do).
func (x *Index) anyEngine() *core.Engine {
	for _, set := range x.sets {
		for _, rep := range set {
			if e := rep.engine(); e != nil {
				return e
			}
		}
	}
	return nil
}

// NumDocs is the whole collection's document count (every shard
// engine reports the shared global statistic).
func (x *Index) NumDocs() int {
	if e := x.anyEngine(); e != nil {
		return e.NumDocs()
	}
	return 0
}

// Close waits for in-flight repairs, then — when the index owns its
// engines (OpenReplicated) — closes every replica engine. Indexes
// over caller-opened engines (NewIndex) leave them to the caller.
func (x *Index) Close() error {
	x.repairWG.Wait()
	if !x.owned {
		return nil
	}
	var first error
	for _, set := range x.sets {
		for _, rep := range set {
			rep.mu.Lock()
			if rep.eng != nil {
				if err := rep.eng.Close(); err != nil && first == nil {
					first = err
				}
				rep.eng = nil
			}
			rep.mu.Unlock()
		}
	}
	return first
}

// Metrics returns the coordinator's registry.
func (x *Index) Metrics() *obs.Registry { return x.reg }

// shardResult is one shard's resolved contribution to a request.
type shardResult struct {
	shard       int
	resp        core.Response
	err         error
	breakerOpen bool
	hedged      bool // a backup sub-query was fired
	hedgeWin    bool // ... and it answered first
}

// hedgeDelay computes shard i's current straggler delay; 0 disables
// hedging for this request.
func (x *Index) hedgeDelay(i int) time.Duration {
	if x.cfg.DisableHedge {
		return 0
	}
	if x.cfg.HedgeAfter > 0 {
		return x.cfg.HedgeAfter
	}
	p95 := x.lat[i].p95()
	if p95 <= 0 {
		return 0
	}
	d := time.Duration(float64(p95) * x.cfg.HedgeFactor)
	if d < x.cfg.HedgeMin {
		d = x.cfg.HedgeMin
	}
	if d > x.cfg.HedgeMax {
		d = x.cfg.HedgeMax
	}
	return d
}

// seqOut is the resolution of one attempt sequence (a primary or a
// hedge) over shard i's candidate replicas.
type seqOut struct {
	resp        core.Response
	err         error
	breakerOpen bool // every attempt was breaker-denied; no store touched
	failovers   int  // failed attempts that moved on to a different replica
}

// attemptSeq walks shard i's candidate replicas: the best healthy
// replica first, failing over to the next candidate on hard errors
// (mid-query failover — a dead store never costs more than one
// attempt). The total budget is max(RetryAttempts, len(cands)), so a
// single-replica shard keeps the old retry semantics and a replicated
// one is guaranteed a shot at every copy. The score floor is re-read
// per attempt so attempts dispatched after other shards answered
// prune against the running merged threshold. Per admitted attempt,
// the serving replica's breaker, EWMA latency, and consecutive-error
// count are observed; corruption errors additionally quarantine the
// replica and trigger an asynchronous repair.
func (x *Index) attemptSeq(ctx context.Context, i int, cands []*replica, req core.Request, slice time.Duration, floor func() float64) seqOut {
	// With one candidate the retry budget is spent on it (the legacy
	// single-store semantics: one breaker admission covering the whole
	// retry loop). With replicas, retrying the same store is pointless
	// when a different copy is available, so each visit makes a single
	// attempt and the budget buys extra failover laps instead.
	visits, inner := 1, x.cfg.RetryAttempts
	if inner < 1 {
		inner = 1
	}
	if len(cands) > 1 {
		visits, inner = x.cfg.RetryAttempts, 1
		if visits < len(cands) {
			visits = len(cands)
		}
	}
	sub := req
	sub.Deadline = slice
	var out seqOut
	admitted := 0
	var prev *replica
	for v := 0; v < visits; v++ {
		if v > 0 && ctx.Err() != nil {
			break
		}
		rep := cands[v%len(cands)]
		if prev != nil && rep != prev {
			out.failovers++
		}
		prev = rep
		br := rep.breaker()
		if err := br.Allow(); err != nil {
			out.resp, out.err = core.Response{Outcome: core.OutcomeError}, fmt.Errorf("shard %d: %w", i, err)
			continue
		}
		admitted++
		var resp core.Response
		var err error
		for a := 0; a < inner; a++ {
			if a > 0 && ctx.Err() != nil {
				break
			}
			sub.MinScore = req.MinScore
			if f := floor(); f > sub.MinScore {
				sub.MinScore = f
			}
			start := time.Now()
			resp, err = rep.run(ctx, sub)
			rep.observeLatency(time.Since(start))
			if err == nil || resp.Outcome != core.OutcomeError {
				break
			}
			var pe *inference.ParseError
			if errors.As(err, &pe) {
				break // not transient; same on every retry
			}
		}
		// The breaker watches for hard storage failures. Shed and
		// deadline outcomes are not the replica's storage acting up —
		// and an admitted half-open probe must always be observed or
		// the breaker wedges — so they count as successes.
		ok := err == nil || resp.Outcome != core.OutcomeError
		br.Observe(ok)
		rep.observeOutcome(ok)
		out.resp, out.err = resp, err
		if ok {
			rep.answered.Add(1)
			return out
		}
		rep.failed.Add(1)
		if isCorruptErr(err) {
			x.quarantineForRepair(rep, err)
		}
		var pe *inference.ParseError
		if errors.As(err, &pe) {
			return out // a parse error is the same on every replica
		}
	}
	out.breakerOpen = admitted == 0
	return out
}

// runShard resolves shard i: candidate selection over its replica
// set, the primary attempt sequence, and — if the straggler delay
// fires first — a hedged backup racing it, dispatched with the
// candidate order rotated so it leads with a *different* replica than
// the primary. The loser is cancelled and awaited, so no evaluation
// outlives this call.
func (x *Index) runShard(ctx context.Context, i int, req core.Request, slice time.Duration, floor func() float64) shardResult {
	cands := x.candidates(i)
	if len(cands) == 0 {
		return shardResult{
			shard:       i,
			err:         fmt.Errorf("shard %d: every replica quarantined: %w", i, resilience.ErrBreakerOpen),
			breakerOpen: true,
		}
	}

	type attemptOut struct {
		out   seqOut
		hedge bool
		start time.Time
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	outc := make(chan attemptOut, 2)
	var awg sync.WaitGroup
	launch := func(hedge bool, cands []*replica) {
		awg.Add(1)
		go func() {
			defer awg.Done()
			start := time.Now()
			if h := x.testAttemptHook; h != nil {
				h(actx, i, hedge)
			}
			o := x.attemptSeq(actx, i, cands, req, slice, floor)
			outc <- attemptOut{out: o, hedge: hedge, start: start}
		}()
	}
	launch(false, cands)

	var timerC <-chan time.Time
	if d := x.hedgeDelay(i); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timerC = t.C
	}
	hedged := false
	for {
		select {
		case r := <-outc:
			cancel()
			awg.Wait() // the losing attempt must not outlive the request
			x.lat[i].observe(time.Since(r.start))
			if r.out.failovers > 0 {
				x.failovers.Add(int64(r.out.failovers))
			}
			return shardResult{
				shard: i, resp: r.out.resp, err: r.out.err, breakerOpen: r.out.breakerOpen,
				hedged: hedged, hedgeWin: hedged && r.hedge,
			}
		case <-timerC:
			timerC = nil
			hedged = true
			// Hedge across replicas: rotate the candidate order so the
			// backup hits a different copy of the shard first instead of
			// re-hitting the straggling store (with one replica this
			// degenerates to the classic same-store hedge).
			hcands := cands
			if len(cands) > 1 {
				hcands = append(append([]*replica(nil), cands[1:]...), cands[0])
			}
			launch(true, hcands)
		}
	}
}

// Run fans the request out to every shard, merges the per-shard top-k
// rankings (remapping local→global document ids), propagates the
// merged k-th score to late sub-queries as a MaxScore floor, and
// resolves the outcome against the quorum policy. Every shard
// goroutine is awaited before Run returns — a cancelled request leaks
// nothing. See core.Coverage for the partial-result accounting.
func (x *Index) Run(ctx context.Context, req core.Request) (core.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x.searches.Add(1)
	n := len(x.sets)

	// The whole-request deadline lives here; each shard sub-query gets
	// a slice of it, reserving the remainder for the merge.
	reqCtx, cancel := context.WithCancel(ctx)
	if req.Deadline > 0 {
		reqCtx, cancel = context.WithTimeout(ctx, req.Deadline)
	}
	defer cancel()
	var slice time.Duration
	if req.Deadline > 0 {
		slice = time.Duration(float64(req.Deadline) * x.cfg.DeadlineFraction)
	}

	// floorBits carries the running merged k-th score to sub-queries
	// dispatched after earlier shards answered (retries, hedges).
	var floorBits atomic.Uint64
	floor := func() float64 { return math.Float64frombits(floorBits.Load()) }

	results := make(chan shardResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- x.runShard(reqCtx, i, req, slice, floor)
		}(i)
	}
	go func() { wg.Wait(); close(results) }()

	var (
		merged     []core.Result
		counters   core.Counters
		cov        core.Coverage
		degraded   bool
		quorumLost bool
		firstErr   error
	)
	cov.Shards = n
	answeredSet := make([]bool, n)
	for r := range results {
		if r.hedged {
			cov.Hedged++
			x.hedges.Add(1)
		}
		if r.hedgeWin {
			cov.HedgeWins++
			x.hedgeWins.Add(1)
		}
		switch {
		case r.breakerOpen:
			cov.BreakerOpen++
		case quorumLost && r.err != nil:
			// Casualties of the fail-fast cancellation below: their
			// deadline-ish errors are our own doing, not an answer.
			cov.Failed++
		case r.err == nil || errors.Is(r.err, resilience.ErrDeadline):
			// Answered — possibly with a partial shard ranking (the
			// deadline slice fired); partial shard answers still merge
			// and count toward quorum, flagged as degraded coverage.
			answeredSet[r.shard] = true
			cov.Answered++
			x.tally[r.shard].answered.Add(1)
			if r.resp.Outcome != core.OutcomeOK {
				cov.Degraded++
				degraded = true
				x.tally[r.shard].degraded.Add(1)
			}
			counters = counters.Add(r.resp.Counters)
			for _, res := range r.resp.Results {
				merged = append(merged, core.Result{Doc: GlobalDoc(res.Doc, r.shard, n), Score: res.Score})
			}
			// The local→global mapping is strictly monotone per shard, so
			// the evaluators' ranking order reproduces the unsharded ties.
			inference.SortRanking(merged)
			if req.TopK > 0 && len(merged) > req.TopK {
				merged = merged[:req.TopK]
			}
			if req.TopK > 0 && len(merged) == req.TopK {
				floorBits.Store(math.Float64bits(merged[len(merged)-1].Score))
			}
		case errors.Is(r.err, resilience.ErrShed):
			cov.Shed++
			x.tally[r.shard].shed.Add(1)
		default:
			cov.Failed++
			x.tally[r.shard].failed.Add(1)
			x.shardFail.Add(1)
			if firstErr == nil {
				firstErr = r.err
			}
		}
		if !quorumLost && n-(cov.Failed+cov.Shed+cov.BreakerOpen) < x.required {
			// Too many shards already lost for the policy: stop the
			// survivors early. The drain above keeps running until the
			// channel closes, so everything is still awaited.
			quorumLost = true
			cancel()
		}
	}

	for i, ok := range answeredSet {
		if !ok {
			cov.MissingShards = append(cov.MissingShards, i)
		}
	}
	resp := core.Response{Results: merged, Counters: counters, Coverage: &cov}
	switch {
	case cov.Answered < x.required:
		x.noQuorums.Add(1)
		resp.Outcome = core.OutcomeError
		err := fmt.Errorf("shard: %d/%d shards answered, quorum %d: %w",
			cov.Answered, n, x.required, resilience.ErrNoQuorum)
		if firstErr != nil {
			err = fmt.Errorf("%w (first shard failure: %w)", err, firstErr)
		}
		return resp, err
	case reqCtx.Err() != nil && !quorumLost:
		// The whole-request deadline (or the caller's context) fired.
		// Quorum was still met, so the merged partial ranking is
		// served, labelled.
		resp.Outcome = core.OutcomeDeadline
		return resp, fmt.Errorf("shard: request cut short: %w", resilience.ErrDeadline)
	case cov.Answered < n:
		x.partials.Add(1)
		resp.Outcome = core.OutcomePartial
		return resp, nil
	case degraded:
		resp.Outcome = core.OutcomeDegraded
		return resp, nil
	default:
		resp.Outcome = core.OutcomeOK
		return resp, nil
	}
}

// Explain routes a global document id to its shard and explains the
// query there, on the first routable replica. Replicas are
// byte-identical and score with global statistics, so the explanation
// matches the unsharded one whichever copy serves it.
func (x *Index) Explain(query string, doc uint32) (*inference.Explanation, error) {
	n := len(x.sets)
	sh := ShardOf(doc, n)
	local := LocalDoc(doc, n)
	cands := x.candidates(sh)
	if len(cands) == 0 {
		return nil, fmt.Errorf("shard: shard %d has no servable replica", sh)
	}
	eng := cands[0].engine()
	if eng == nil {
		return nil, fmt.Errorf("shard: shard %d has no servable replica", sh)
	}
	if int(local) >= eng.LocalDocs() {
		return nil, fmt.Errorf("shard: document %d out of range", doc)
	}
	return eng.Explain(query, local)
}

// Health reports serving fitness: the index can serve while enough
// shards keep at least one routable (non-quarantined, breaker not
// open) replica to reach quorum. Single-replica indexes keep the
// legacy "shard<i>" breaker keys; replicated ones report
// "shard<i>/r<j>" per replica.
func (x *Index) Health() core.Health {
	h := core.Health{Docs: x.NumDocs(), Breakers: make(map[string]string)}
	available := 0
	for i, set := range x.sets {
		routable := false
		for r, rep := range set {
			key := fmt.Sprintf("shard%d", i)
			if len(set) > 1 {
				key = fmt.Sprintf("shard%d/r%d", i, r)
			}
			st := rep.state()
			if st == ReplicaQuarantined {
				h.Breakers[key] = st.String()
				continue
			}
			h.Breakers[key] = rep.breaker().State().String()
			if rep.breaker().State() != resilience.Open {
				routable = true
			}
		}
		if routable {
			available++
		}
	}
	h.Serving = available >= x.required
	return h
}

// Snapshot aggregates the replica engines' snapshots — counters, I/O
// (deduplicated when replicas share one file system), and buffer
// pools (prefixed "s<i>/" for replica 0, "s<i>r<j>/" beyond) — plus
// the coordinator's own sharding block with per-replica health,
// failover, and repair accounting.
func (x *Index) Snapshot() core.Snapshot {
	s := core.Snapshot{Metrics: x.reg.Snapshot()}
	if e := x.anyEngine(); e != nil {
		s.Backend = e.Kind().String() + " (sharded)"
	}
	replicated := len(x.sets[0]) > 1
	seenFS := map[*vfs.FS]bool{}
	for i, set := range x.sets {
		for r, rep := range set {
			e := rep.engine()
			if e == nil {
				continue
			}
			es := e.Snapshot()
			s.Counters = s.Counters.Add(es.Counters)
			if cs := es.Cache; cs != nil {
				if s.Cache == nil {
					s.Cache = &core.CacheStats{}
				}
				*s.Cache = s.Cache.Add(*cs)
			}
			if fs := e.FS(); !seenFS[fs] {
				seenFS[fs] = true
				s.IO = s.IO.Add(es.IO)
			}
			prefix := fmt.Sprintf("s%d/", i)
			if r > 0 {
				prefix = fmt.Sprintf("s%dr%d/", i, r)
			}
			for pool, bs := range es.Buffers {
				if s.Buffers == nil {
					s.Buffers = make(map[string]mneme.BufferStats)
				}
				s.Buffers[prefix+pool] = bs
			}
		}
	}
	s.CorruptRecords = s.Counters.CorruptRecords
	sh := &core.ShardingStats{
		Shards:      len(x.sets),
		Quorum:      x.required,
		Policy:      x.cfg.Policy.String(),
		Partial:     x.partials.Value(),
		NoQuorum:    x.noQuorums.Value(),
		Hedged:      x.hedges.Value(),
		HedgeWins:   x.hedgeWins.Value(),
		Failovers:   x.failovers.Value(),
		Repairs:     x.repairs.Value(),
		Quarantines: x.quarantines.Value(),
	}
	if replicated {
		sh.Replicas = len(x.sets[0])
	}
	for i, set := range x.sets {
		st := core.ShardStat{
			Breaker:  set[0].breaker().State().String(),
			Answered: x.tally[i].answered.Load(),
			Degraded: x.tally[i].degraded.Load(),
			Failed:   x.tally[i].failed.Load(),
			Shed:     x.tally[i].shed.Load(),
		}
		for _, rep := range set {
			if e := rep.engine(); e != nil {
				st.Docs = e.LocalDocs()
				break
			}
		}
		if p := x.lat[i].p95(); p > 0 {
			st.P95Micros = p.Microseconds()
		}
		if replicated {
			for _, rep := range set {
				rs := core.ReplicaStat{
					Collection: rep.coll,
					State:      rep.state().String(),
					Breaker:    rep.breaker().State().String(),
					Answered:   rep.answered.Load(),
					Failed:     rep.failed.Load(),
					ConsecErrs: rep.consecErrs.Load(),
					Repairs:    rep.repairs.Load(),
				}
				if e := rep.ewma(); e > 0 {
					rs.EwmaMicros = int64(e / 1e3)
				}
				st.Replicas = append(st.Replicas, rs)
			}
		}
		sh.PerShard = append(sh.PerShard, st)
	}
	s.Sharding = sh
	return s
}
