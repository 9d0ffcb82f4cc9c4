// Command inqueryd is the long-running search server: one core.Engine
// (or sharded scatter-gather coordinator) per configured index behind
// the HTTP/JSON API in internal/serve.
//
// Usage:
//
//	inqueryd -index cacm=index.img -addr 127.0.0.1:7933
//	inqueryd -index index.img -name mycol -backend btree
//	inqueryd -synthetic CACM -scale 0.05            # self-built test index
//	inqueryd -synthetic CACM -shards 4 -quorum 'quorum(3)'
//	inqueryd -synthetic CACM -shards 4 -replicas 2         # replicated, failover routing
//	inqueryd -synthetic CACM -nrt                   # live ingest via POST /v1/ingest
//
// Indexes come from inquery-index images (-index, repeatable, as
// "name=path" or a bare path served under -name) or are built in
// memory from the paper's synthetic collections (-synthetic,
// repeatable) — the latter needs no image file and is what the smoke
// and serve-bench harnesses use. Images built with inquery-index
// -shards are self-describing (a .shards sidecar) and are served
// through the shard coordinator automatically; -shards here sharding
// only the synthetic builds. The -quorum policy decides whether a
// response missing shards is served as 200 "partial" (with a coverage
// block) or failed 503 with a quorum-lost error.
//
// With -nrt every index opens through the near-real-time write path
// instead of the read-only engine: any WAL left in the image is
// replayed into the searchable memtable, POST /v1/ingest appends
// documents that are searchable immediately, and the -nrt-flush-docs /
// -nrt-flush-every / -nrt-compact triggers govern background flushes
// and segment merges (visible in /snapshot under "nrt"). NRT serving
// is single-store: it cannot be combined with sharding.
//
// Endpoints: POST /v1/search (single or batch), POST /v1/ingest (-nrt
// indexes only; batch indexes answer 501), GET /v1/explain,
// GET /metrics, GET /snapshot, GET /healthz. Statuses follow the
// taxonomy documented in internal/serve: 200 ok/degraded/partial, 400
// parse, 404 unknown index, 429 shed, 503 breaker open, quorum lost,
// or draining, 504 deadline (partial ranking in the body).
//
// On SIGINT/SIGTERM the server marks /healthz draining, stops
// accepting connections, and waits up to -shutdown-timeout for
// in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/textproc"
	"repro/internal/vfs"
	"time"
)

func main() {
	var images, synthetics []string
	addr := flag.String("addr", "127.0.0.1:7933", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	flag.Func("index", "index image to serve, as name=path or a bare path (repeatable)", func(v string) error {
		images = append(images, v)
		return nil
	})
	flag.Func("synthetic", "synthetic paper collection to build in memory and serve (CACM, Legal, ...; repeatable)", func(v string) error {
		synthetics = append(synthetics, v)
		return nil
	})
	name := flag.String("name", "collection", "collection name inside bare -index images")
	backend := flag.String("backend", "mneme", "storage backend for -index images: mneme or btree")
	cache := flag.Bool("cache", true, "enable Mneme record caching (paper buffer plan)")
	stem := flag.Bool("stem", true, "apply Porter stemming to queries against -index images")
	chunk := flag.Int("chunk", 0, "chunk size the -index image was built with")
	scale := flag.Float64("scale", 0.05, "document-count scale of -synthetic collections")
	topK := flag.Int("k", serve.DefaultTopK, "default results per query when a request names no top_k")
	deadline := flag.Duration("deadline", 0, "default per-query deadline applied when a request names none (0 = none)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "maximum requests in one batch body")
	resultCache := flag.Int("result-cache", 0, "query-result cache entries per engine; repeats of a normalized query are served without re-evaluation (0 = disabled)")
	blockCacheMB := flag.Int("block-cache-mb", 0, "decoded postings-block cache budget per engine, in MiB (0 = disabled)")
	degraded := flag.Bool("degraded", false, "serve partial rankings past corrupt records for every request (requests can also opt in per query)")
	prune := flag.Bool("prune", false, "MaxScore pruning for every DAAT request (requests can also opt in per query)")
	maxInflight := flag.Int("max-inflight", 0, "bound on concurrently admitted queries per index; excess queries wait -queue-wait then are shed with 429 (0 = unbounded)")
	queueWait := flag.Duration("queue-wait", 0, "how long an over-limit query may wait for admission before being shed")
	retries := flag.Int("retries", 1, "read attempts per storage fault-in")
	breaker := flag.Int("breaker", 0, "consecutive-failure threshold that opens a per-pool circuit breaker (0 = disabled)")
	nrt := flag.Bool("nrt", false, "open indexes through the near-real-time write path (WAL replay + searchable memtable) and accept POST /v1/ingest; incompatible with sharding")
	nrtFlushDocs := flag.Int("nrt-flush-docs", 1024, "flush the NRT memtable to an immutable segment after this many ingested documents (0 = explicit/interval flushes only)")
	nrtFlushEvery := flag.Duration("nrt-flush-every", 0, "background NRT flush-and-compact interval (0 = none)")
	nrtCompact := flag.Int("nrt-compact", 4, "merge NRT segments once this many have accumulated (0 = never)")
	shards := flag.Int("shards", 0, "document-partitioned shard count for -synthetic collections, each shard on its own store (0/1 = unsharded; -index images carry their own shard count)")
	replicas := flag.Int("replicas", 0, "replica count per shard for -synthetic collections, each replica on its own store with failover routing (0/1 = unreplicated; -index images carry their own replica count)")
	repairBPS := flag.Int64("repair-bps", 0, "rate limit, in bytes/sec, for online replica repair copies (0 = unpaced)")
	chaosKill := flag.Duration("chaos-kill-replica", 0, "crash-freeze replica 1 of every replicated -synthetic shard after this delay — a replica-kill drill for the bench harness (0 = never)")
	quorum := flag.String("quorum", "all", "sharded quorum policy: all, best-effort, or quorum(k)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fixed sharded straggler delay before a hedged duplicate read (0 = derive from each shard's p95)")
	shutdownTO := flag.Duration("shutdown-timeout", 10*time.Second, "drain budget for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "inqueryd:", err)
		os.Exit(1)
	}
	if len(images) == 0 && len(synthetics) == 0 {
		fail(errors.New("nothing to serve: give at least one -index or -synthetic"))
	}
	policy, err := shard.ParsePolicy(*quorum)
	if err != nil {
		fail(err)
	}
	shardCfg := shard.Config{Policy: policy, HedgeAfter: *hedgeAfter, RetryAttempts: 2, RepairBytesPerSec: *repairBPS}
	var nrtCfg *core.NRTConfig
	if *nrt {
		if *shards > 1 {
			fail(errors.New("-nrt serves single-store indexes; drop -shards"))
		}
		if *replicas > 1 {
			fail(errors.New("-nrt serves single-store indexes; drop -replicas"))
		}
		nrtCfg = &core.NRTConfig{
			FlushDocs:       *nrtFlushDocs,
			FlushEvery:      *nrtFlushEvery,
			CompactSegments: *nrtCompact,
		}
	}

	engineOpts := func(an *textproc.Analyzer) []core.Option {
		opts := []core.Option{core.WithAnalyzer(an)}
		if *resultCache > 0 {
			opts = append(opts, core.WithResultCache(*resultCache))
		}
		if *blockCacheMB > 0 {
			opts = append(opts, core.WithBlockCache(*blockCacheMB))
		}
		if *degraded {
			opts = append(opts, core.WithDegraded())
		}
		if *prune {
			opts = append(opts, core.WithPruning())
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
		return opts
	}

	indexes := make(map[string]serve.Index)
	var shardEngines []*core.Engine
	addIndex := func(n string, ix serve.Index) error {
		if _, dup := indexes[n]; dup {
			return fmt.Errorf("duplicate index name %q", n)
		}
		indexes[n] = ix
		return nil
	}
	defer func() {
		for _, ix := range indexes {
			switch e := ix.(type) {
			case *core.Engine:
				e.Close()
			case *core.NRTEngine:
				e.Close()
			case *shard.Index:
				// Waits for in-flight repairs; closes the engines too
				// when the index owns them (replicated open).
				e.Close()
			}
		}
		for _, e := range shardEngines {
			e.Close()
		}
	}()

	for _, spec := range images {
		n, path := *name, spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			n, path = spec[:i], spec[i+1:]
		}
		ix, engs, err := openImage(path, n, *backend, *cache, *stem, *chunk, shardCfg, nrtCfg, engineOpts)
		if err != nil {
			fail(fmt.Errorf("index %s: %w", spec, err))
		}
		shardEngines = append(shardEngines, engs...)
		if err := addIndex(n, ix); err != nil {
			fail(err)
		}
	}
	// Synthetic collections are generated pre-normalized, so their
	// engines analyze without stemming or stopping — same analyzer the
	// experiments use.
	var chaosTargets []*vfs.FS
	for _, n := range synthetics {
		ix, engs, targets, err := buildSynthetic(n, *scale, *shards, *replicas, shardCfg, nrtCfg, engineOpts)
		if err != nil {
			fail(fmt.Errorf("synthetic %s: %w", n, err))
		}
		shardEngines = append(shardEngines, engs...)
		chaosTargets = append(chaosTargets, targets...)
		if err := addIndex(n, ix); err != nil {
			fail(err)
		}
	}
	if *chaosKill > 0 {
		if len(chaosTargets) == 0 {
			fail(errors.New("-chaos-kill-replica needs a replicated -synthetic index (-replicas >= 2)"))
		}
		// The drill the replicated bench row uses: after the delay,
		// replica 1 of every shard starts failing every read and its
		// store freezes — the coordinator must absorb the loss with
		// zero failed queries while replica 0 survives.
		time.AfterFunc(*chaosKill, func() {
			for i, fs := range chaosTargets {
				fs.SetFaultPlan(vfs.NewFaultPlan(int64(9000 + i)).FailRead(1).WithCrash())
			}
			fmt.Printf("inqueryd: chaos drill: crash-froze %d replica store(s)\n", len(chaosTargets))
		})
	}

	srv := serve.NewIndexes(indexes, serve.Defaults{
		TopK:     *topK,
		Deadline: *deadline,
		MaxBatch: *maxBatch,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	names := make([]string, 0, len(indexes))
	for n, ix := range indexes {
		if sx, ok := ix.(*shard.Index); ok {
			if sx.Replicas() > 1 {
				names = append(names, fmt.Sprintf("%s (%d docs, %d shards x%d replicas, %s)",
					n, sx.NumDocs(), sx.Shards(), sx.Replicas(), shardCfg.Policy))
			} else {
				names = append(names, fmt.Sprintf("%s (%d docs, %d shards, %s)",
					n, sx.NumDocs(), sx.Shards(), shardCfg.Policy))
			}
			continue
		}
		if ne, ok := ix.(*core.NRTEngine); ok {
			names = append(names, fmt.Sprintf("%s (%d docs, nrt)", n, ne.NumDocs()))
			continue
		}
		names = append(names, fmt.Sprintf("%s (%d docs)", n, ix.NumDocs()))
	}
	// The bound-address line is machine-read by the smoke harness; keep
	// the prefix stable.
	fmt.Printf("inqueryd: listening on http://%s\n", ln.Addr())
	fmt.Printf("inqueryd: serving %s\n", strings.Join(names, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("inqueryd: draining")
	srv.SetDraining(true)
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		fail(fmt.Errorf("shutdown: %w", err))
	}
	fmt.Println("inqueryd: stopped")
}

// openImage loads an inquery-index image and opens an engine over it,
// mirroring inquery-search's configuration (including the Table 2
// buffer plan derived from the stored dictionary when caching). Images
// carrying a .shards sidecar open as a sharded coordinator; the
// returned engine slice holds the shard engines for shutdown. A
// non-nil nrtCfg opens the collection through the NRT write path
// instead — replaying any WAL the image carries — so the served index
// accepts /v1/ingest.
func openImage(path, name, backend string, cache, stem bool, chunk int, shardCfg shard.Config,
	nrtCfg *core.NRTConfig, baseOpts func(*textproc.Analyzer) []core.Option) (serve.Index, []*core.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fs, err := vfs.LoadImage(f, vfs.Options{OSCacheBytes: 8 << 20})
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	kind, err := core.ParseBackendKind(backend)
	if err != nil {
		return nil, nil, err
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(stem))
	if !stem {
		an = textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	}
	nShards, nReplicas, sharded, err := shard.DetectFull(fs, name)
	if err != nil {
		return nil, nil, err
	}
	planName := name
	if sharded {
		planName = shard.ShardName(name, 0)
	}
	opts := append(baseOpts(an), core.WithChunking(chunk))
	if kind == core.BackendMneme && cache {
		opts = append(opts, core.WithPlan(core.PlanFromLexicon(fs, planName)))
	}
	return openTopology([][]*vfs.FS{{fs}}, name, nShards, nReplicas, kind, shardCfg, nrtCfg, opts)
}

// openTopology opens a built collection in its serving topology: a
// plain engine, an NRT engine (non-nil nrtCfg), a scatter-gather
// coordinator over nShards engines (nShards > 0), or the replicated
// failover router (nReplicas > 1). fss[s][r] is the store of shard s,
// replica r; a single store ({{fs}}) may carry every shard and replica.
// The returned engine slice holds the shard engines the caller closes.
func openTopology(fss [][]*vfs.FS, name string, nShards, nReplicas int, kind core.BackendKind,
	shardCfg shard.Config, nrtCfg *core.NRTConfig, opts []core.Option) (serve.Index, []*core.Engine, error) {
	switch {
	case nShards == 0 && nrtCfg != nil:
		eng, err := core.OpenNRT(fss[0][0], name, kind, *nrtCfg, opts...)
		return eng, nil, err
	case nShards == 0:
		eng, err := core.Open(fss[0][0], name, kind, opts...)
		return eng, nil, err
	case nrtCfg != nil:
		return nil, nil, fmt.Errorf("image is sharded (%d shards); -nrt serves single-store indexes", nShards)
	case nReplicas > 1:
		// The returned index owns (and closes) its engines.
		ix, err := shard.OpenReplicated(fss, name, nShards, nReplicas, kind, shardCfg, opts...)
		return ix, nil, err
	}
	engines, err := shard.OpenEngines(replicaStores(fss, 0), name, nShards, kind, opts...)
	if err != nil {
		return nil, nil, err
	}
	ix, err := shard.NewIndex(name, engines, shardCfg)
	return ix, engines, err
}

// replicaStores lists replica r's store of every shard.
func replicaStores(fss [][]*vfs.FS, r int) []*vfs.FS {
	out := make([]*vfs.FS, len(fss))
	for i := range fss {
		out[i] = fss[i][r]
	}
	return out
}

// buildSynthetic generates the named paper collection at the given
// scale, indexes it into an in-memory file system (or, with nShards >
// 1, round-robin into per-shard file systems behind a scatter-gather
// coordinator), and opens Mneme engines with the collection's Table 2
// buffer plan. A non-nil nrtCfg wraps the built collection as the NRT
// base segment so live documents can be ingested on top of it. With
// nReplicas > 1 every shard is cloned onto nReplicas per-replica file
// systems and served through the failover router; the third return
// value holds the replica-1 stores, the -chaos-kill-replica targets.
func buildSynthetic(name string, scale float64, nShards, nReplicas int, shardCfg shard.Config,
	nrtCfg *core.NRTConfig, baseOpts func(*textproc.Analyzer) []core.Option) (serve.Index, []*core.Engine, []*vfs.FS, error) {
	col, ok := collection.ByName(name, scale)
	if !ok {
		return nil, nil, nil, fmt.Errorf("unknown collection (want CACM, Legal, TIPSTER1, TIPSTER)")
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	if nShards <= 1 && nReplicas <= 1 {
		fs := vfs.New(vfs.Options{OSCacheBytes: 8 << 20})
		if _, err := core.Build(fs, col.Name, col.Stream(), core.BuildOptions{Analyzer: an}); err != nil {
			return nil, nil, nil, err
		}
		opts := append(baseOpts(an), core.WithPlan(core.PlanFromLexicon(fs, col.Name)))
		ix, engines, err := openTopology([][]*vfs.FS{{fs}}, col.Name, 0, 1, core.BackendMneme, shardCfg, nrtCfg, opts)
		return ix, engines, nil, err
	}
	nShards, nReplicas = max(nShards, 1), max(nReplicas, 1)
	// Per-shard, per-replica file systems: every replica of every shard
	// is its own blast radius, so a fault plan (or the chaos drill)
	// takes out exactly one copy of one shard.
	fss := make([][]*vfs.FS, nShards)
	for i := range fss {
		fss[i] = make([]*vfs.FS, nReplicas)
		for r := range fss[i] {
			fss[i][r] = vfs.New(vfs.Options{OSCacheBytes: 8 << 20})
		}
	}
	var err error
	if nReplicas > 1 {
		_, err = shard.BuildReplicated(fss, col.Name, nShards, nReplicas, col.Stream(), core.BuildOptions{Analyzer: an})
	} else {
		_, err = shard.Build(replicaStores(fss, 0), col.Name, nShards, col.Stream(), core.BuildOptions{Analyzer: an})
	}
	if err != nil {
		return nil, nil, nil, err
	}
	opts := append(baseOpts(an),
		core.WithPlan(core.PlanFromLexicon(fss[0][0], shard.ShardName(col.Name, 0))))
	ix, engines, err := openTopology(fss, col.Name, nShards, nReplicas, core.BackendMneme, shardCfg, nrtCfg, opts)
	if err != nil || nReplicas == 1 {
		return ix, engines, nil, err
	}
	return ix, engines, replicaStores(fss, 1), nil
}
