package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/vfs"
)

// TestSearchCtxDeadlineTypedAndCounted: a query whose context is
// already expired fetches nothing, returns a typed error chaining to
// both resilience.ErrDeadline and the context error, and is counted in
// DeadlineHits — never passed off as a complete (empty) ranking.
func TestSearchCtxDeadlineTypedAndCounted(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "dl")
	eng, err := Open(fs, "dl", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	want, err := resultsOf(eng.Run(nil, Request{Query: queries[0], TopK: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline matched nothing")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := resultsOf(eng.Run(ctx, Request{Query: queries[0], TopK: 10}))
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("expired ctx: err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expired ctx: err = %v does not chain to ctx.Err()", err)
	}
	if len(got) != 0 {
		t.Fatalf("expired-before-start query fetched %d results", len(got))
	}
	c := eng.Counters()
	if c.DeadlineHits != 1 {
		t.Fatalf("DeadlineHits = %d, want 1", c.DeadlineHits)
	}

	// A background context behaves exactly like a nil one.
	got, err = resultsOf(eng.Run(context.Background(), Request{Query: queries[0], TopK: 10}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "background ctx", got, want)
	if c := eng.Counters(); c.DeadlineHits != 1 {
		t.Fatalf("background ctx bumped DeadlineHits to %d", c.DeadlineHits)
	}
}

// countdownCtx is a deterministic "deadline": it expires after its
// Err method has been consulted a fixed number of times, letting tests
// cut a query at an exact evaluation boundary with no wall clock.
type countdownCtx struct {
	context.Context
	done  chan struct{}
	calls int64
	after int64
}

func newCountdownCtx(after int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), done: make(chan struct{}), after: after}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }
func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// TestSearchCtxMidQueryPartialResults: the deadline fires between two
// term fetches. The terms already scored produce a partial ranking,
// the unfetched terms read as absent, and the returned error labels
// the truncation.
func TestSearchCtxMidQueryPartialResults(t *testing.T) {
	fs := newFS()
	concurrencyCorpus(t, fs, "mid")
	eng, err := Open(fs, "mid", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// First boundary check passes (w1 is fetched), the second expires:
	// w2 and w3 are never fetched.
	ctx := newCountdownCtx(1)
	got, err := resultsOf(eng.Run(ctx, Request{Query: "#or(w1 w2 w3)", TopK: 10}))
	if !errors.Is(err, resilience.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-query deadline: err = %v", err)
	}
	if len(got) == 0 {
		t.Fatal("partial ranking is empty although one term was scored")
	}
	c := eng.Counters()
	if c.DeadlineHits != 1 {
		t.Fatalf("DeadlineHits = %d, want 1", c.DeadlineHits)
	}
	if c.Lookups != 1 {
		t.Fatalf("Lookups = %d, want exactly the one pre-deadline fetch", c.Lookups)
	}
}

// TestDeadlineNoGoroutineLeak: cancelled batches and shed queries must
// not strand worker goroutines or gate slots. After the storm the
// goroutine count returns to its baseline and the gate is empty.
func TestDeadlineNoGoroutineLeak(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "leak")
	eng, err := Open(fs, "leak", BackendMneme, WithAnalyzer(plainAnalyzer()),
		WithMaxInFlight(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
		if _, err := eng.SearchBatchCtx(ctx, queries, Parallelism(6), TopK(5),
			QueryTimeout(50*time.Microsecond)); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled batch: %v", err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before storm, %d after", before, n)
	}
	if n := eng.gate.InFlight(); n != 0 {
		t.Fatalf("gate still holds %d slots after all queries returned", n)
	}

	// The engine still serves normal queries.
	if _, err := eng.Run(nil, Request{Query: queries[0], TopK: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRetryRecoversTransientFault: with WithRetry, one injected
// transient read fault is invisible to the caller — identical rankings,
// the recovery counted in RetriedReads and surfaced through Snapshot —
// while an engine without retry still sees the raw fault (defaults are
// untouched).
func TestEngineRetryRecoversTransientFault(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "rt")
	for _, kind := range []BackendKind{BackendMneme, BackendBTree} {
		t.Run(kind.String(), func(t *testing.T) {
			eng, err := Open(fs, "rt", kind, WithAnalyzer(plainAnalyzer()), WithRetry(3))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			want, err := resultsOf(eng.Run(nil, Request{Query: queries[0], TopK: 10}))
			if err != nil {
				t.Fatal(err)
			}

			fs.SetFaultPlan(vfs.NewFaultPlan(1).FailReadEvery(1).Once())
			got, err := resultsOf(eng.Run(nil, Request{Query: queries[0], TopK: 10}))
			fs.SetFaultPlan(nil)
			if err != nil {
				t.Fatalf("search with transient fault under retry: %v", err)
			}
			sameResults(t, "retried query", got, want)
			c := eng.Counters()
			if c.RetriedReads != 1 {
				t.Fatalf("RetriedReads = %d, want 1", c.RetriedReads)
			}
			if c.CorruptRecords != 0 {
				t.Fatalf("recovered fault still counted %d corrupt records", c.CorruptRecords)
			}
			if v := eng.met.retried.Value(); v != 1 {
				t.Fatalf("retried_reads_total metric = %d, want 1", v)
			}
			snap := eng.Snapshot()
			if snap.Resilience == nil || snap.Resilience.RetriedReads != 1 {
				t.Fatalf("snapshot resilience block = %+v", snap.Resilience)
			}
			eng.ResetCounters()
			if c := eng.Counters(); c.RetriedReads != 0 {
				t.Fatalf("RetriedReads = %d after reset", c.RetriedReads)
			}

			// No retry configured: the same fault surfaces raw.
			strict, err := Open(fs, "rt", kind, WithAnalyzer(plainAnalyzer()))
			if err != nil {
				t.Fatal(err)
			}
			defer strict.Close()
			fs.SetFaultPlan(vfs.NewFaultPlan(1).FailReadEvery(1).Once())
			_, err = strict.Run(nil, Request{Query: queries[0], TopK: 10})
			fs.SetFaultPlan(nil)
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("strict engine: err = %v, want ErrInjected", err)
			}
			if snap := strict.Snapshot(); snap.Resilience != nil {
				t.Fatalf("plain engine grew a resilience block: %+v", snap.Resilience)
			}
		})
	}
}

// TestEngineBreakerFailsFastAndRecovers drives the B-tree engine's
// breaker through a full outage: threshold failures open it, open-state
// queries are answered degraded without touching the device, and once
// the outage clears the half-open probe closes it again.
func TestEngineBreakerFailsFastAndRecovers(t *testing.T) {
	fs := newFS()
	concurrencyCorpus(t, fs, "brk")
	eng, err := Open(fs, "brk", BackendBTree, WithAnalyzer(plainAnalyzer()),
		WithDegraded(), WithBreaker(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const query = "w1"
	want, err := resultsOf(eng.Run(nil, Request{Query: query, TopK: 10})) // also warms the internal-node cache
	if err != nil {
		t.Fatal(err)
	}

	// Persistent outage: two failing fetches trip the breaker.
	fs.SetFaultPlan(vfs.NewFaultPlan(1).FailReadEvery(1))
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(nil, Request{Query: query, TopK: 10}); err != nil {
			t.Fatalf("degraded query %d under outage: %v", i, err)
		}
	}
	fs.SetFaultPlan(nil)
	snap := eng.Snapshot()
	if snap.Resilience == nil || snap.Resilience.Breakers["btree"].State != "open" {
		t.Fatalf("breaker not open after threshold: %+v", snap.Resilience)
	}

	// Open: queries are shielded — degraded answers, zero device reads.
	readsBefore := fs.Stats().FileAccesses
	if _, err := eng.Run(nil, Request{Query: query, TopK: 10}); err != nil {
		t.Fatalf("query against open breaker: %v", err)
	}
	if got := fs.Stats().FileAccesses; got != readsBefore {
		t.Fatalf("open breaker touched the device: %d accesses, was %d", got, readsBefore)
	}
	if c := eng.Counters(); c.CorruptRecords < 3 {
		t.Fatalf("CorruptRecords = %d, want every shielded fetch counted", c.CorruptRecords)
	}

	// Outage over: within the cooldown budget a probe closes the
	// breaker and service returns to clean rankings.
	var recovered bool
	for i := 0; i < 10 && !recovered; i++ {
		got, err := resultsOf(eng.Run(nil, Request{Query: query, TopK: 10}))
		if err != nil {
			t.Fatalf("recovery query %d: %v", i, err)
		}
		if eng.treeBreaker.State() == resilience.Closed {
			recovered = true
			sameResults(t, "post-recovery", got, want)
		}
	}
	if !recovered {
		t.Fatalf("breaker never closed after outage cleared: %+v", eng.treeBreaker.Snap())
	}
	snap = eng.Snapshot()
	if b := snap.Resilience.Breakers["btree"]; b.Opens != 1 || b.Probes < 1 {
		t.Fatalf("breaker snap = %+v, want 1 open and >=1 probe", b)
	}
}

// TestAdmissionGateShedsAndRecovers: with the only slot occupied a
// query is shed with the typed error and counted (but not as an
// evaluated query); with the slot free the same query runs normally.
func TestAdmissionGateShedsAndRecovers(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "gate")
	eng, err := Open(fs, "gate", BackendMneme, WithAnalyzer(plainAnalyzer()),
		WithMaxInFlight(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if err := eng.gate.Acquire(nil); err != nil { // occupy the only slot
		t.Fatal(err)
	}
	_, err = eng.Run(nil, Request{Query: queries[0], TopK: 10})
	if !errors.Is(err, resilience.ErrShed) {
		t.Fatalf("full gate: err = %v, want ErrShed", err)
	}
	c := eng.Counters()
	if c.Shed != 1 || c.Queries != 0 {
		t.Fatalf("counters after shed = %+v, want Shed=1 Queries=0", c)
	}
	eng.gate.Release()

	got, err := resultsOf(eng.Run(nil, Request{Query: queries[0], TopK: 10}))
	if err != nil {
		t.Fatalf("freed gate: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("freed gate returned no results")
	}
	snap := eng.Snapshot()
	if snap.Resilience == nil || snap.Resilience.Shed != 1 || snap.Resilience.MaxInFlight != 1 {
		t.Fatalf("snapshot resilience = %+v", snap.Resilience)
	}

	// Queue-wait path: a queued query is admitted once the holder
	// releases within the wait budget.
	waiter, err := Open(fs, "gate", BackendMneme, WithAnalyzer(plainAnalyzer()),
		WithMaxInFlight(1, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	if err := waiter.gate.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	go func() {
		<-release
		waiter.gate.Release()
	}()
	close(release)
	if _, err := waiter.Run(nil, Request{Query: queries[0], TopK: 10}); err != nil {
		t.Fatalf("queued query not admitted: %v", err)
	}
	if c := waiter.Counters(); c.Shed != 0 || c.Queries != 1 {
		t.Fatalf("queued-query counters = %+v", c)
	}
}

// TestSearchBatchShedUnderLoad: with the gate fully occupied every
// batch query sheds — typed in SearchBatchCtx outcomes, silently
// skipped (but counted) by SearchBatch, which must not abort. Once the
// gate frees, the same batch completes and matches the serial run.
func TestSearchBatchShedUnderLoad(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "shedbatch")
	eng, err := Open(fs, "shedbatch", BackendMneme, WithAnalyzer(plainAnalyzer()),
		WithMaxInFlight(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Occupy both slots: deterministic total shed.
	for i := 0; i < 2; i++ {
		if err := eng.gate.Acquire(nil); err != nil {
			t.Fatal(err)
		}
	}
	out, err := eng.SearchBatchCtx(nil, queries, Parallelism(4), TopK(10))
	if err != nil {
		t.Fatalf("batch over full gate: %v", err)
	}
	for i, o := range out {
		if !errors.Is(o.Err, resilience.ErrShed) {
			t.Fatalf("outcome %d = %+v, want ErrShed", i, o)
		}
	}
	res, err := eng.SearchBatch(queries, Parallelism(4), TopK(10))
	if err != nil {
		t.Fatalf("SearchBatch treated shed as fatal: %v", err)
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("shed query %d returned results", i)
		}
	}
	c := eng.Counters()
	if c.Queries != 0 || c.Shed != int64(2*len(queries)) {
		t.Fatalf("counters = %+v, want Queries=0 Shed=%d", c, 2*len(queries))
	}

	// Free the gate: the batch is served and matches a serial engine.
	eng.gate.Release()
	eng.gate.Release()
	ser, err := Open(fs, "shedbatch", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ser.SearchBatch(queries, TopK(10))
	ser.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SearchBatch(queries, Parallelism(4), TopK(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		sameResults(t, "freed gate", got[i], want[i])
	}
	if c := eng.Counters(); c.Queries != int64(len(queries)) {
		t.Fatalf("Queries = %d, want %d", c.Queries, len(queries))
	}
}

// soakRounds returns the chaos-round count: the default keeps the
// normal test suite fast; `make soak` raises it via SOAK_ROUNDS.
func soakRounds() int {
	if s := os.Getenv("SOAK_ROUNDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// TestChaosSoak is the resilience invariant test: a randomized-but-
// seeded fault schedule runs over the full query matrix on both
// backends with every resilience feature armed, and EVERY query must
// either (a) return rankings identical to the clean run, or (b) carry
// a typed label — an error chaining to ErrShed/ErrDeadline, or a
// degraded/cut-short count on its searcher. A query that returns
// divergent rankings with no label is a silent wrong result: the one
// outcome the resilience layer exists to make impossible.
func TestChaosSoak(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "chaos")
	rounds := soakRounds()

	for _, cfg := range []struct {
		name string
		kind BackendKind
		opts []Option
	}{
		{"mneme", BackendMneme, []Option{WithPlan(BufferPlan{SmallBytes: 12 << 10, MediumBytes: 64 << 10, LargeBytes: 256 << 10})}},
		{"btree", BackendBTree, nil},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			clean, err := Open(fs, "chaos", cfg.kind, append([]Option{WithAnalyzer(plainAnalyzer())}, cfg.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Result, len(queries))
			for i, q := range queries {
				if want[i], err = resultsOf(clean.Run(nil, Request{Query: q, TopK: 10})); err != nil {
					t.Fatal(err)
				}
			}
			clean.Close()

			chaotic, err := Open(fs, "chaos", cfg.kind, append([]Option{
				WithAnalyzer(plainAnalyzer()),
				WithDegraded(),
				WithRetry(3),
				WithBreaker(5, 7),
				WithMaxInFlight(4, time.Second),
			}, cfg.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer chaotic.Close()

			var silent sync.Map // query index -> true on silent divergence
			for round := 0; round < rounds; round++ {
				seed := int64(round + 1)
				rng := rand.New(rand.NewSource(seed * 31))
				var plan *vfs.FaultPlan
				switch round % 3 {
				case 0: // background noise: each read may fail
					plan = vfs.NewFaultPlan(seed).WithProbability(0.02 + 0.02*float64(round%5))
				case 1: // periodic hard faults
					plan = vfs.NewFaultPlan(seed).FailReadEvery(int64(3 + rng.Intn(9)))
				case 2: // one transient fault; retry should hide it entirely
					plan = vfs.NewFaultPlan(seed).FailReadEvery(1).Once()
				}
				fs.SetFaultPlan(plan)

				const workers = 4
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						s := chaotic.Acquire()
						for i := g; i < len(queries); i += workers {
							var ctx context.Context
							if i%7 == 3 { // deterministic deadline chaos
								c, cancel := context.WithCancel(context.Background())
								cancel()
								ctx = c
							}
							pre := s.Counters()
							got, err := resultsOf(s.Run(ctx, Request{Query: queries[i], TopK: 10}))
							post := s.Counters()
							switch {
							case err != nil:
								if !errors.Is(err, resilience.ErrShed) && !errors.Is(err, resilience.ErrDeadline) {
									t.Errorf("round %d query %d: untyped error %v", round, i, err)
								}
							case post.CorruptRecords > pre.CorruptRecords || post.DeadlineHits > pre.DeadlineHits:
								// Degraded or cut short — labelled by counters;
								// the ranking is allowed to differ.
							default:
								// No label anywhere: the ranking must be exact.
								if len(got) != len(want[i]) {
									silent.Store(i, true)
									t.Errorf("round %d query %d: SILENT divergence: %d results, want %d",
										round, i, len(got), len(want[i]))
									continue
								}
								for r := range got {
									if got[r] != want[i][r] {
										silent.Store(i, true)
										t.Errorf("round %d query %d rank %d: SILENT divergence: %v, want %v",
											round, i, r, got[r], want[i][r])
										break
									}
								}
							}
						}
					}(g)
				}
				wg.Wait()
				fs.SetFaultPlan(nil)
				if t.Failed() {
					t.FailNow()
				}
			}

			// Full recovery: with faults gone, repeated passes drain any
			// open breakers and a pass must eventually run completely
			// clean — every query exact, nothing newly degraded.
			recovered := false
			for pass := 0; pass < 6 && !recovered; pass++ {
				before := chaotic.Counters()
				cleanPass := true
				for i, q := range queries {
					got, err := resultsOf(chaotic.Run(nil, Request{Query: q, TopK: 10}))
					if err != nil {
						t.Fatalf("recovery pass %d query %d: %v", pass, i, err)
					}
					if len(got) != len(want[i]) {
						cleanPass = false
						continue
					}
					for r := range got {
						if got[r] != want[i][r] {
							cleanPass = false
							break
						}
					}
				}
				after := chaotic.Counters()
				recovered = cleanPass && after.CorruptRecords == before.CorruptRecords
			}
			if !recovered {
				t.Fatalf("engine never recovered to clean service after chaos: %+v",
					chaotic.Snapshot().Resilience)
			}

			// Accounting: every attempt is either an evaluated query or a
			// counted shed — nothing vanishes.
			c := chaotic.Counters()
			if c.Queries+c.Shed == 0 || c.Queries == 0 {
				t.Fatalf("soak accounting off: %+v", c)
			}
		})
	}
}
