// Command inquery-search runs queries against an index image produced
// by inquery-index, on either storage backend, in batch or interactive
// mode.
//
// Usage:
//
//	inquery-search -index index.img -name mycol "information retrieval"
//	inquery-search -index index.img -name mycol -backend btree -k 5 '#and(a b)'
//	inquery-search -index index.img -name mycol -i          # REPL
//
// The query language supports bare terms plus #sum, #wsum, #and, #or,
// #not, #max, #syn, #phrase, #odN, #uwN, #filreq, and #filrej.
//
// Exit codes: 0 all queries completed cleanly; 1 hard failure (bad
// flags, unreadable image, or a query error that is neither shed nor
// deadline); 3 at least one query was shed by admission control
// (-max-inflight); 4 results may be incomplete — corrupt records were
// skipped in -degraded mode or a -deadline cut a query short.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// Exit codes beyond the conventional 0/1, so scripts can distinguish
// load shedding from data damage without parsing output.
const (
	exitShed     = 3 // at least one query rejected by admission control
	exitDegraded = 4 // partial results: corrupt records skipped or deadline hit
)

func main() {
	imgPath := flag.String("index", "index.img", "index image path")
	name := flag.String("name", "collection", "collection name inside the image")
	backend := flag.String("backend", "mneme", "storage backend: mneme or btree")
	cache := flag.Bool("cache", true, "enable Mneme record caching (paper buffer plan)")
	topK := flag.Int("k", 10, "results per query (0 = all)")
	daat := flag.Bool("daat", false, "use document-at-a-time evaluation")
	prune := flag.Bool("prune", false, "MaxScore dynamic pruning for -daat queries with -k > 0 (identical top-k, skips non-competitive postings)")
	interactive := flag.Bool("i", false, "interactive mode")
	queryFile := flag.String("queries", "", "file of queries, one per line (batch mode)")
	stats := flag.Bool("stats", false, "print I/O and buffer statistics after the run")
	workers := flag.Int("workers", 1, "parallel query workers for -queries batch mode (TAAT only)")
	stem := flag.Bool("stem", true, "apply Porter stemming to query terms")
	chunk := flag.Int("chunk", 0, "chunk size the index was built with (must match inquery-index -chunk)")
	explain := flag.Bool("explain", false, "print the belief breakdown for each query's top document")
	degraded := flag.Bool("degraded", false, "skip unreadable inverted-list records instead of aborting (counted in -stats)")
	trace := flag.Bool("trace", false, "print a per-query span tree (lexicon, fetch, fault-in, score) with real and simulated durations")
	deadline := flag.Duration("deadline", 0, "per-query deadline; an expired query returns its partial ranking (0 = none)")
	maxInflight := flag.Int("max-inflight", 0, "bound on concurrently admitted queries; excess queries wait -queue-wait then are shed (0 = unbounded)")
	queueWait := flag.Duration("queue-wait", 0, "how long an over-limit query may wait for admission before being shed")
	retries := flag.Int("retries", 1, "read attempts per storage fault-in; >1 retries transient faults with capped backoff")
	breaker := flag.Int("breaker", 0, "consecutive-failure threshold that opens a per-pool circuit breaker (0 = disabled)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "inquery-search:", err)
		os.Exit(1)
	}

	f, err := os.Open(*imgPath)
	if err != nil {
		fail(err)
	}
	fs, err := vfs.LoadImage(f, vfs.Options{OSCacheBytes: 8 << 20})
	f.Close()
	if err != nil {
		fail(err)
	}

	kind, err := core.ParseBackendKind(*backend)
	if err != nil {
		fail(err)
	}

	// Synthetic collections are indexed without stemming; honour -stem.
	an := textproc.NewAnalyzer(textproc.WithStemming(*stem))
	if !*stem {
		an = textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	}

	opts := []core.Option{core.WithAnalyzer(an), core.WithChunking(*chunk)}
	if *prune {
		opts = append(opts, core.WithPruning())
	}
	if *degraded {
		opts = append(opts, core.WithDegraded())
	}
	if *maxInflight > 0 {
		opts = append(opts, core.WithMaxInFlight(*maxInflight, *queueWait))
	}
	if *retries > 1 {
		opts = append(opts, core.WithRetry(*retries))
	}
	if *breaker > 0 {
		opts = append(opts, core.WithBreaker(*breaker, 0))
	}
	if kind == core.BackendMneme && *cache {
		opts = append(opts, core.WithPlan(core.PlanFromLexicon(fs, *name)))
	}
	eng, err := core.Open(fs, *name, kind, opts...)
	if err != nil {
		fail(err)
	}
	defer eng.Close()

	printResults := func(res []core.Result) {
		if len(res) == 0 {
			fmt.Println("  (no matching documents)")
			return
		}
		for i, r := range res {
			fmt.Printf("  %2d. doc %-8d belief %.4f\n", i+1, r.Doc, r.Score)
		}
	}

	hardErrs := 0

	mode := core.ModeTAAT
	if *daat {
		mode = core.ModeDAAT
	}
	run := func(q string) {
		q = strings.TrimSpace(q)
		if q == "" {
			return
		}
		req := core.Request{Query: q, TopK: *topK, Mode: mode, Deadline: *deadline}
		var resp core.Response
		var err error
		if *trace {
			// Tracing is a diagnostic replay; -deadline is not applied.
			req.Deadline = 0
			var tr *obs.Trace
			resp, tr, err = eng.TraceRun(req)
			if tr != nil {
				fmt.Print(tr.Render(vfs.Model1993().Costs()))
			}
		} else {
			resp, err = eng.Run(context.Background(), req)
		}
		switch resp.Outcome {
		case core.OutcomeShed:
			fmt.Println("  (query shed by admission control)")
			return
		case core.OutcomeDeadline:
			fmt.Println("  (deadline exceeded; partial ranking)")
		case core.OutcomeError:
			fmt.Fprintln(os.Stderr, "  error:", err)
			hardErrs++
			return
		}
		printResults(resp.Results)
		if *explain && len(resp.Results) > 0 {
			top := resp.Results[0].Doc
			ex, err := eng.Explain(q, top)
			if err == nil {
				fmt.Printf("  explanation for doc %d:\n", top)
				for _, line := range strings.Split(strings.TrimRight(ex.String(), "\n"), "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
		}
	}

	if *queryFile != "" {
		qf, err := os.Open(*queryFile)
		if err != nil {
			fail(err)
		}
		var queries []string
		sc := bufio.NewScanner(qf)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			queries = append(queries, sc.Text())
		}
		qf.Close()
		if err := sc.Err(); err != nil {
			fail(err)
		}
		// Tracing is single-stream, so -trace always takes the serial
		// loop regardless of -workers.
		if *workers > 1 && !*daat && !*trace {
			// Parallel batch: evaluate with the worker pool, then print
			// per-query outcomes in input order. Shed and deadline
			// conditions are labelled, not fatal; hard errors are
			// reported per query and reflected in the exit code.
			out, err := eng.SearchBatchCtx(nil, queries,
				core.Parallelism(*workers), core.TopK(*topK),
				core.QueryTimeout(*deadline))
			if err != nil {
				fail(err)
			}
			for i, q := range queries {
				fmt.Printf("query: %s\n", q)
				o := out[i]
				switch {
				case o.Err == nil:
				case errors.Is(o.Err, resilience.ErrShed):
					fmt.Println("  (query shed by admission control)")
					continue
				case errors.Is(o.Err, resilience.ErrDeadline):
					fmt.Println("  (deadline exceeded; partial ranking)")
				default:
					fmt.Fprintln(os.Stderr, "  error:", o.Err)
					hardErrs++
					continue
				}
				printResults(o.Results)
			}
		} else {
			for _, q := range queries {
				fmt.Printf("query: %s\n", q)
				run(q)
			}
		}
	} else if *interactive {
		fmt.Printf("%s/%s ready (%d docs). Enter queries; blank line quits.\n",
			*name, kind, eng.NumDocs())
		sc := bufio.NewScanner(os.Stdin)
		for {
			fmt.Print("inquery> ")
			if !sc.Scan() || strings.TrimSpace(sc.Text()) == "" {
				break
			}
			run(sc.Text())
		}
	} else {
		if flag.NArg() == 0 {
			fail(fmt.Errorf("no queries given (use -i for interactive mode or -queries for a batch file)"))
		}
		for _, q := range flag.Args() {
			fmt.Printf("query: %s\n", q)
			run(q)
		}
	}

	if *stats {
		snap := eng.Snapshot()
		fmt.Printf("\n%d queries, %d record lookups, %d postings processed\n",
			snap.Counters.Queries, snap.Counters.Lookups, snap.Counters.Postings)
		if snap.CorruptRecords > 0 {
			fmt.Printf("WARNING: %d corrupt records skipped (degraded mode)\n", snap.CorruptRecords)
		}
		fmt.Printf("I/O: %d file accesses, %d disk blocks, %d KB read\n",
			snap.IO.FileAccesses, snap.IO.DiskReads, snap.IO.BytesRead/1024)
		pools := make([]string, 0, len(snap.Buffers))
		for pool := range snap.Buffers {
			pools = append(pools, pool)
		}
		sort.Strings(pools)
		for _, pool := range pools {
			bs := snap.Buffers[pool]
			fmt.Printf("buffer %-7s refs %-6d hits %-6d rate %.2f\n",
				pool, bs.Refs, bs.Hits, bs.HitRate())
		}
		if rs := snap.Resilience; rs != nil {
			fmt.Printf("resilience: %d retried reads, %d deadline hits, %d shed",
				rs.RetriedReads, rs.DeadlineHits, rs.Shed)
			if rs.MaxInFlight > 0 {
				fmt.Printf(", %d/%d in flight", rs.InFlight, rs.MaxInFlight)
			}
			fmt.Println()
			names := make([]string, 0, len(rs.Breakers))
			for n := range rs.Breakers {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				b := rs.Breakers[n]
				fmt.Printf("breaker %-7s %-8s opens %-4d rejects %-4d probes %d\n",
					n, b.State, b.Opens, b.Rejects, b.Probes)
			}
		}
	}

	c := eng.Counters()
	switch {
	case hardErrs > 0:
		os.Exit(1)
	case c.Shed > 0:
		os.Exit(exitShed)
	case c.CorruptRecords > 0 || c.DeadlineHits > 0:
		os.Exit(exitDegraded)
	}
}
