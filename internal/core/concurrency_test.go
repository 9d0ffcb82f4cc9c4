package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/mneme"
	"repro/internal/vfs"
)

// concurrencyCorpus builds a medium collection and a query stream with
// the term repetition the paper's caching exploits.
func concurrencyCorpus(t testing.TB, fs *vfs.FS, name string) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var docs []index.Doc
	for d := 0; d < 800; d++ {
		text := ""
		for w := 0; w < 50; w++ {
			text += fmt.Sprintf("w%d ", rng.Intn(900))
		}
		docs = append(docs, index.Doc{ID: uint32(d), Text: text})
	}
	if _, err := Build(fs, name, &SliceDocs{Docs: docs}, BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for i := 0; i < 48; i++ {
		a, b, c := rng.Intn(200), rng.Intn(200), rng.Intn(900)
		switch i % 4 {
		case 0:
			queries = append(queries, fmt.Sprintf("w%d w%d w%d", a, b, c))
		case 1:
			queries = append(queries, fmt.Sprintf("#and(w%d w%d)", a, b))
		case 2:
			queries = append(queries, fmt.Sprintf("#or(w%d w%d w%d)", a, b, c))
		case 3:
			queries = append(queries, fmt.Sprintf("#wsum(3 w%d 1 w%d)", a, c))
		}
	}
	return queries
}

// concurrencyConfigs lists the three measured backend configurations.
func concurrencyConfigs() []struct {
	name string
	kind BackendKind
	opts []Option
} {
	plan := BufferPlan{SmallBytes: 12 << 10, MediumBytes: 64 << 10, LargeBytes: 256 << 10}
	return []struct {
		name string
		kind BackendKind
		opts []Option
	}{
		{"btree", BackendBTree, nil},
		{"mneme-nocache", BackendMneme, nil},
		{"mneme-cache", BackendMneme, []Option{WithPlan(plan)}},
	}
}

// resultsOf projects a Run response onto its ranking.
func resultsOf(resp Response, err error) ([]Result, error) { return resp.Results, err }

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestConcurrentSearchMatchesSerial runs the same query batch serially
// and from N goroutines (each on its own Searcher) on every backend
// configuration. Rankings must be identical result-for-result, and the
// engine's aggregate counters must reconcile exactly with the serial
// run — the invariant that keeps the paper's tables valid when queries
// are served concurrently. Run with -race this is also the engine's
// concurrency smoke test.
func TestConcurrentSearchMatchesSerial(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "conc")

	for _, cfg := range concurrencyConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			// Serial reference pass.
			ser, err := Open(fs, "conc", cfg.kind, append([]Option{WithAnalyzer(plainAnalyzer())}, cfg.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Result, len(queries))
			for i, q := range queries {
				if want[i], err = resultsOf(ser.Run(nil, Request{Query: q, TopK: 10})); err != nil {
					t.Fatal(err)
				}
			}
			wantAgg := ser.Counters()
			ser.Close()

			// Concurrent pass: goroutine g serves queries g, g+G, g+2G, …
			// so together the workers evaluate exactly the serial batch.
			eng, err := Open(fs, "conc", cfg.kind, append([]Option{WithAnalyzer(plainAnalyzer())}, cfg.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			const workers = 6
			got := make([][]Result, len(queries))
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := eng.Acquire()
					for i := g; i < len(queries); i += workers {
						r, err := resultsOf(s.Run(nil, Request{Query: queries[i], TopK: 10}))
						if err != nil {
							t.Errorf("query %d: %v", i, err)
							return
						}
						got[i] = r
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i := range queries {
				sameResults(t, fmt.Sprintf("query %d", i), got[i], want[i])
			}
			if agg := eng.Counters(); agg != wantAgg {
				t.Fatalf("aggregate counters diverged:\nconcurrent %+v\nserial     %+v", agg, wantAgg)
			}
			if agg := eng.Counters(); agg.Queries != int64(len(queries)) {
				t.Fatalf("Queries = %d, want %d", agg.Queries, len(queries))
			}
		})
	}
}

// TestSearchBatchMatchesSerial drives both batch APIs at several
// parallelism levels and checks order, rankings, and aggregates. The
// gated configuration (two admission slots, no queue wait, nothing
// else in flight) proves the pool caps its workers at gate capacity:
// a batch wider than the gate must not shed its own queries.
func TestSearchBatchMatchesSerial(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "batch")

	configs := append(concurrencyConfigs(), struct {
		name string
		kind BackendKind
		opts []Option
	}{"mneme-gated", BackendMneme, []Option{WithMaxInFlight(2, 0)}})
	drivers := []struct {
		name string
		run  func(e *Engine, opts ...BatchOption) ([][]Result, error)
	}{
		{"SearchBatch", func(e *Engine, opts ...BatchOption) ([][]Result, error) {
			return e.SearchBatch(queries, opts...)
		}},
		{"SearchBatchCtx", func(e *Engine, opts ...BatchOption) ([][]Result, error) {
			out, err := e.SearchBatchCtx(nil, queries, opts...)
			res := make([][]Result, len(out))
			for i, o := range out {
				if o.Err != nil {
					return nil, fmt.Errorf("query %d: %w", i, o.Err)
				}
				res[i] = o.Results
			}
			return res, err
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			ser, err := Open(fs, "batch", cfg.kind, append([]Option{WithAnalyzer(plainAnalyzer())}, cfg.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ser.SearchBatch(queries, TopK(10))
			if err != nil {
				t.Fatal(err)
			}
			wantAgg := ser.Counters()
			ser.Close()

			for _, d := range drivers {
				for _, par := range []int{1, 4, 16} {
					eng, err := Open(fs, "batch", cfg.kind, append([]Option{WithAnalyzer(plainAnalyzer())}, cfg.opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := d.run(eng, Parallelism(par), TopK(10))
					if err != nil {
						t.Fatalf("%s par %d: %v", d.name, par, err)
					}
					for i := range queries {
						sameResults(t, fmt.Sprintf("%s par %d query %d", d.name, par, i), got[i], want[i])
					}
					agg := eng.Counters()
					if agg.Shed != 0 {
						t.Fatalf("%s par %d: batch shed %d of its own queries", d.name, par, agg.Shed)
					}
					if agg != wantAgg {
						t.Fatalf("%s par %d: aggregates %+v, want %+v", d.name, par, agg, wantAgg)
					}
					eng.Close()
				}
			}
		})
	}
}

// TestSearchBatchError: a malformed query stops the feed and surfaces
// the first error; completed rankings are still returned.
func TestSearchBatchError(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	eng, err := Open(fs, "tiny", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	queries := []string{"information", "#bogus(x)", "object"}
	if _, err := eng.SearchBatch(queries, Parallelism(2)); err == nil {
		t.Fatal("batch swallowed a parse error")
	}
	if _, err := eng.SearchBatch(nil, Parallelism(4)); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestCommitRollbackDuringSearches races the store's transaction
// boundary against live searchers: a writer goroutine allocates scratch
// objects and alternates Commit and Rollback while reader goroutines
// evaluate the query batch. Committed inverted lists are never touched,
// so every concurrent ranking must equal the serial baseline, and the
// whole dance must be race-clean.
func TestCommitRollbackDuringSearches(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "txn")
	eng, err := Open(fs, "txn", BackendMneme,
		WithAnalyzer(plainAnalyzer()),
		WithPlan(BufferPlan{SmallBytes: 12 << 10, MediumBytes: 64 << 10, LargeBytes: 256 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	want := make([][]Result, len(queries))
	for i, q := range queries {
		if want[i], err = resultsOf(eng.Run(nil, Request{Query: q, TopK: 10})); err != nil {
			t.Fatal(err)
		}
	}

	st := eng.Backend().(interface{ Mneme() *mneme.Store }).Mneme()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		scratch := make([]byte, 64)
		for i := 0; i < 40; i++ {
			id, err := st.Allocate(PoolNameMedium, scratch)
			if err != nil {
				t.Errorf("allocate: %v", err)
				return
			}
			if i%2 == 0 {
				if err := st.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if err := st.Delete(id); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
				if err := st.Commit(); err != nil {
					t.Errorf("commit after delete: %v", err)
					return
				}
			} else if err := st.Rollback(); err != nil {
				t.Errorf("rollback: %v", err)
				return
			}
		}
	}()

	const readers = 4
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := eng.Acquire()
			for {
				for i, q := range queries {
					got, err := resultsOf(s.Run(nil, Request{Query: q, TopK: 10}))
					if err != nil {
						t.Errorf("reader %d query %d: %v", g, i, err)
						return
					}
					if len(got) != len(want[i]) {
						t.Errorf("reader %d query %d: %d results, want %d", g, i, len(got), len(want[i]))
						return
					}
					for r := range got {
						if got[r] != want[i][r] {
							t.Errorf("reader %d query %d rank %d: %v, want %v", g, i, r, got[r], want[i][r])
							return
						}
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentMixedReadPaths exercises the remaining read surface
// (Explain, Snapshot, ListSize, buffer stats) while searches run, to
// widen -race coverage beyond the Run path.
func TestConcurrentMixedReadPaths(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "mixed")
	eng, err := Open(fs, "mixed", BackendMneme,
		WithAnalyzer(plainAnalyzer()),
		WithPlan(BufferPlan{SmallBytes: 12 << 10, MediumBytes: 64 << 10, LargeBytes: 256 << 10}),
		WithAccessLog(), WithTermUse())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := eng.Acquire()
			for i := g; i < len(queries); i += 4 {
				if _, err := s.Run(nil, Request{Query: queries[i], TopK: 5}); err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if _, err := s.Explain(queries[i], 0); err != nil {
					t.Errorf("explain: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			eng.Snapshot()
			eng.Counters()
			eng.AccessLog()
			eng.TermUse()
			eng.ListSize("w1")
			eng.Backend().BufferStats()
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	c := eng.Counters()
	if c.Queries != int64(len(queries)) || c.Lookups == 0 {
		t.Fatalf("counters = %+v", c)
	}
	if len(eng.AccessLog()) == 0 || len(eng.TermUse()) == 0 {
		t.Fatal("access log / term use not populated")
	}
}
