package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/inference"
	"repro/internal/lexicon"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/vfs"
)

// Counters accumulates the retrieval engine's work, feeding the paper's
// metrics: Lookups is the denominator of Table 5's "A"; Postings drives
// the user-CPU estimate; Queries counts query evaluations.
type Counters struct {
	Lookups      int64 `json:"lookups"`       // inverted-list record lookups
	Postings     int64 `json:"postings"`      // posting entries processed
	Queries      int64 `json:"queries"`       // queries evaluated
	BytesFetched int64 `json:"bytes_fetched"` // record bytes fetched from the backend
	// CorruptRecords counts inverted-list records skipped because their
	// storage failed checksum or I/O on fetch — including fast-fail
	// rejections from an open circuit breaker. Always zero unless the
	// engine was opened WithDegraded; without it corruption aborts the
	// query instead of being counted.
	CorruptRecords int64 `json:"corrupt_records"`
	// RetriedReads counts transient record fault-in failures that a
	// retry recovered (the caller never saw them). Always zero unless
	// the engine was opened WithRetry. Engine-level: individual
	// searchers report zero here; Engine.Counters fills it in.
	RetriedReads int64 `json:"retried_reads"`
	// DeadlineHits counts queries cut short by their context deadline:
	// the query returned partial results tagged resilience.ErrDeadline.
	DeadlineHits int64 `json:"deadline_hits"`
	// Shed counts queries rejected by admission control (WithMaxInFlight)
	// with resilience.ErrShed. Shed queries are not counted in Queries —
	// they were never evaluated.
	Shed int64 `json:"shed"`
	// PostingsSkipped counts posting entries an Advance-capable iterator
	// passed over without surfacing them to the evaluator — the postings
	// MaxScore pruning never scored. Disjoint from Postings.
	PostingsSkipped int64 `json:"postings_skipped"`
	// BlocksSkipped counts block-format (v2) record blocks whose bodies
	// were never decoded because Advance jumped past them.
	BlocksSkipped int64 `json:"blocks_skipped"`
	// ChunksSkipped counts storage chunks of indexed chunked records
	// that were never faulted in — skipped blocks translated into
	// avoided I/O.
	ChunksSkipped int64 `json:"chunks_skipped"`
	// ResultCacheHits counts queries answered entirely from the
	// query-result cache (WithResultCache): the query is counted in
	// Queries but performed no lookups, fetches, or posting work.
	ResultCacheHits int64 `json:"result_cache_hits,omitempty"`
	// BlockCacheHits / BlockCacheMisses count decoded-postings block
	// cache probes (WithBlockCache). A hit serves a pre-decoded block
	// (or, on the TAAT path, a whole record) without touching the
	// backend: hit-served records are not counted in Lookups or
	// BytesFetched, which is exactly the avoided work.
	BlockCacheHits   int64 `json:"block_cache_hits,omitempty"`
	BlockCacheMisses int64 `json:"block_cache_misses,omitempty"`
}

// Add returns the field-wise sum of c and d.
func (c Counters) Add(d Counters) Counters {
	return Counters{
		Lookups:         c.Lookups + d.Lookups,
		Postings:        c.Postings + d.Postings,
		Queries:         c.Queries + d.Queries,
		BytesFetched:    c.BytesFetched + d.BytesFetched,
		CorruptRecords:  c.CorruptRecords + d.CorruptRecords,
		RetriedReads:    c.RetriedReads + d.RetriedReads,
		DeadlineHits:    c.DeadlineHits + d.DeadlineHits,
		Shed:            c.Shed + d.Shed,
		PostingsSkipped: c.PostingsSkipped + d.PostingsSkipped,
		BlocksSkipped:   c.BlocksSkipped + d.BlocksSkipped,
		ChunksSkipped:   c.ChunksSkipped + d.ChunksSkipped,

		ResultCacheHits:  c.ResultCacheHits + d.ResultCacheHits,
		BlockCacheHits:   c.BlockCacheHits + d.BlockCacheHits,
		BlockCacheMisses: c.BlockCacheMisses + d.BlockCacheMisses,
	}
}

// Sub returns the field-wise difference c - d.
func (c Counters) Sub(d Counters) Counters {
	return Counters{
		Lookups:         c.Lookups - d.Lookups,
		Postings:        c.Postings - d.Postings,
		Queries:         c.Queries - d.Queries,
		BytesFetched:    c.BytesFetched - d.BytesFetched,
		CorruptRecords:  c.CorruptRecords - d.CorruptRecords,
		RetriedReads:    c.RetriedReads - d.RetriedReads,
		DeadlineHits:    c.DeadlineHits - d.DeadlineHits,
		Shed:            c.Shed - d.Shed,
		PostingsSkipped: c.PostingsSkipped - d.PostingsSkipped,
		BlocksSkipped:   c.BlocksSkipped - d.BlocksSkipped,
		ChunksSkipped:   c.ChunksSkipped - d.ChunksSkipped,

		ResultCacheHits:  c.ResultCacheHits - d.ResultCacheHits,
		BlockCacheHits:   c.BlockCacheHits - d.BlockCacheHits,
		BlockCacheMisses: c.BlockCacheMisses - d.BlockCacheMisses,
	}
}

// atomicCounters is the engine-level aggregate of all searchers' work.
// RetriedReads has no slot: retries are counted engine-wide by the
// shared resilience.Retry, not per searcher.
type atomicCounters struct {
	lookups         atomic.Int64
	postings        atomic.Int64
	queries         atomic.Int64
	bytesFetched    atomic.Int64
	corruptRecords  atomic.Int64
	deadlineHits    atomic.Int64
	shed            atomic.Int64
	postingsSkipped atomic.Int64
	blocksSkipped   atomic.Int64
	chunksSkipped   atomic.Int64
	resultCacheHits atomic.Int64
	blockCacheHits  atomic.Int64
	blockCacheMiss  atomic.Int64
}

func (a *atomicCounters) add(d Counters) {
	a.lookups.Add(d.Lookups)
	a.postings.Add(d.Postings)
	a.queries.Add(d.Queries)
	a.bytesFetched.Add(d.BytesFetched)
	a.corruptRecords.Add(d.CorruptRecords)
	a.deadlineHits.Add(d.DeadlineHits)
	a.shed.Add(d.Shed)
	a.postingsSkipped.Add(d.PostingsSkipped)
	a.blocksSkipped.Add(d.BlocksSkipped)
	a.chunksSkipped.Add(d.ChunksSkipped)
	a.resultCacheHits.Add(d.ResultCacheHits)
	a.blockCacheHits.Add(d.BlockCacheHits)
	a.blockCacheMiss.Add(d.BlockCacheMisses)
}

func (a *atomicCounters) snapshot() Counters {
	return Counters{
		Lookups:         a.lookups.Load(),
		Postings:        a.postings.Load(),
		Queries:         a.queries.Load(),
		BytesFetched:    a.bytesFetched.Load(),
		CorruptRecords:  a.corruptRecords.Load(),
		DeadlineHits:    a.deadlineHits.Load(),
		Shed:            a.shed.Load(),
		PostingsSkipped: a.postingsSkipped.Load(),
		BlocksSkipped:   a.blocksSkipped.Load(),
		ChunksSkipped:   a.chunksSkipped.Load(),

		ResultCacheHits:  a.resultCacheHits.Load(),
		BlockCacheHits:   a.blockCacheHits.Load(),
		BlockCacheMisses: a.blockCacheMiss.Load(),
	}
}

func (a *atomicCounters) reset() {
	a.lookups.Store(0)
	a.postings.Store(0)
	a.queries.Store(0)
	a.bytesFetched.Store(0)
	a.corruptRecords.Store(0)
	a.deadlineHits.Store(0)
	a.shed.Store(0)
	a.postingsSkipped.Store(0)
	a.blocksSkipped.Store(0)
	a.chunksSkipped.Store(0)
	a.resultCacheHits.Store(0)
	a.blockCacheHits.Store(0)
	a.blockCacheMiss.Store(0)
}

// engineMetrics holds the engine's metrics registry plus cached handles
// into it, so the per-lookup and per-query paths pay only the atomic
// adds — never a registry map lookup.
type engineMetrics struct {
	reg *obs.Registry

	queries      *obs.Counter
	lookups      *obs.Counter
	postings     *obs.Counter
	bytes        *obs.Counter
	corrupt      *obs.Counter
	retried      *obs.Counter
	deadline     *obs.Counter
	shed         *obs.Counter
	postSkipped  *obs.Counter
	blockSkipped *obs.Counter
	chunkSkipped *obs.Counter
	resCacheHit  *obs.Counter
	blkCacheHit  *obs.Counter
	blkCacheMiss *obs.Counter

	fetchBytes    *obs.Histogram // bytes per inverted-list record fetch
	queryLookups  *obs.Histogram // record lookups per query
	queryPostings *obs.Histogram // posting entries per query
	gateWait      *obs.Histogram // ns queued before admission (gate only)
}

func newEngineMetrics() *engineMetrics {
	reg := obs.NewRegistry()
	return &engineMetrics{
		reg:          reg,
		queries:      reg.Counter("queries_total"),
		lookups:      reg.Counter("lookups_total"),
		postings:     reg.Counter("postings_total"),
		bytes:        reg.Counter("bytes_fetched_total"),
		corrupt:      reg.Counter("corrupt_records_total"),
		retried:      reg.Counter("retried_reads_total"),
		deadline:     reg.Counter("deadline_hits_total"),
		shed:         reg.Counter("shed_total"),
		postSkipped:  reg.Counter("postings_skipped_total"),
		blockSkipped: reg.Counter("blocks_skipped_total"),
		chunkSkipped: reg.Counter("chunks_skipped_total"),
		resCacheHit:  reg.Counter("result_cache_hits_total"),
		blkCacheHit:  reg.Counter("block_cache_hits_total"),
		blkCacheMiss: reg.Counter("block_cache_misses_total"),

		fetchBytes:    reg.Histogram("fetch_bytes", obs.ExpBuckets(16, 4, 10)),
		queryLookups:  reg.Histogram("query_lookups", obs.ExpBuckets(1, 2, 10)),
		queryPostings: reg.Histogram("query_postings", obs.ExpBuckets(4, 4, 10)),
		gateWait:      reg.Histogram("gate_wait_ns", obs.ExpBuckets(1024, 4, 12)),
	}
}

// observeQuery folds one searcher flush delta into the metrics. The
// distributions are of deterministic quantities (counts and bytes, not
// wall-clock), so snapshots of identical runs are identical. The one
// exception is gate_wait_ns, which is fed only when admission control
// (WithMaxInFlight) is on — engines without a gate never observe it.
func (m *engineMetrics) observeQuery(d Counters) {
	m.queries.Add(d.Queries)
	m.lookups.Add(d.Lookups)
	m.postings.Add(d.Postings)
	m.bytes.Add(d.BytesFetched)
	m.corrupt.Add(d.CorruptRecords)
	m.deadline.Add(d.DeadlineHits)
	m.shed.Add(d.Shed)
	m.postSkipped.Add(d.PostingsSkipped)
	m.blockSkipped.Add(d.BlocksSkipped)
	m.chunkSkipped.Add(d.ChunksSkipped)
	m.resCacheHit.Add(d.ResultCacheHits)
	m.blkCacheHit.Add(d.BlockCacheHits)
	m.blkCacheMiss.Add(d.BlockCacheMisses)
	if d.Queries > 0 {
		m.queryLookups.Observe(d.Lookups)
		m.queryPostings.Observe(d.Postings)
	}
}

// Engine is one opened collection + backend pair: INQUERY's query
// processor over an inverted file managed by either storage subsystem.
//
// The engine is an immutable, goroutine-safe handle: the dictionary,
// document metadata, and backend are shared read structures, and all
// per-query mutable state lives in a Searcher (see Acquire). Engine
// counters are the atomic aggregate of every searcher's work, so
// concurrent and serial runs reconcile to the same totals. Engine.Run
// acquires an implicit per-call searcher and is safe to call from many
// goroutines.
//
// Index mutation (AddDocument, DeleteDocument, SaveMeta) is the
// exception: it must not run concurrently with searches.
type Engine struct {
	queryFront

	fs      *vfs.FS
	name    string
	kind    BackendKind
	backend Backend
	dict    *lexicon.Dictionary
	docLens []uint32
	total   int64

	// gen is the engine's current cache generation: block-cache keys
	// embed it, so InvalidateCaches orphans every cached block with one
	// store.
	gen atomic.Uint64

	// Resilience state, all nil/zero unless the corresponding options
	// were given — the default query path costs only nil checks.
	retry       *resilience.Retry   // shared transient-fault retry budget (WithRetry)
	treeBreaker *resilience.Breaker // the B-tree file's breaker (WithBreaker)
	retriedBase int64               // retry count at last ResetCounters

	mu        sync.Mutex // guards accessLog and termUse
	accessLog []uint32
	termUse   map[string]int64
}

// Open loads a collection with the chosen backend, configured by
// functional options: Open(fs, "CACM", BackendMneme, WithPlan(p)).
func Open(fs *vfs.FS, name string, kind BackendKind, opts ...Option) (*Engine, error) {
	var opt engineOptions
	for _, o := range opts {
		o(&opt)
	}
	dict, err := loadLexicon(fs, name)
	if err != nil {
		return nil, err
	}
	lens, total, err := loadDocMeta(fs, name)
	if err != nil {
		return nil, err
	}
	var backend Backend
	switch kind {
	case BackendBTree:
		backend, err = OpenBTreeBackend(fs, name+suffixBTree)
	case BackendMneme:
		backend, err = OpenMnemeBackend(fs, name+suffixMneme, opt.Plan, opt.ChunkLargeLists)
	default:
		err = fmt.Errorf("core: unknown backend %d", kind)
	}
	if err != nil {
		return nil, err
	}
	e := &Engine{
		fs:      fs,
		name:    name,
		kind:    kind,
		backend: backend,
		dict:    dict,
		docLens: lens,
		total:   total,
	}
	e.initFront(opt)
	if opt.TrackTermUse {
		e.termUse = make(map[string]int64)
	}
	e.gen.Store(nextCacheGen())
	e.initResilience()
	return e, nil
}

// Close closes the backend. Dictionary and document-table changes made
// by updates must be saved with SaveMeta first.
func (e *Engine) Close() error { return e.backend.Close() }

// Backend exposes the storage backend.
func (e *Engine) Backend() Backend { return e.backend }

// Kind reports which backend the engine runs on.
func (e *Engine) Kind() BackendKind { return e.kind }

// FS exposes the file system the engine's index files live on (the
// shard coordinator deduplicates I/O stats across co-resident shards
// through it).
func (e *Engine) FS() *vfs.FS { return e.fs }

// Dictionary exposes the term dictionary.
func (e *Engine) Dictionary() *lexicon.Dictionary { return e.dict }

// Counters returns a snapshot of the engine's aggregate work counters:
// the sum over every searcher's completed calls, plus the engine-wide
// retry recovery count.
func (e *Engine) Counters() Counters {
	c := e.agg.snapshot()
	if e.retry != nil {
		c.RetriedReads = e.retry.Retries() - e.retriedBase
	}
	return c
}

// ResetCounters zeroes work counters, the metrics registry, the access
// log, and term-use counts. It must not run concurrently with searches.
func (e *Engine) ResetCounters() {
	e.agg.reset()
	e.met.reg.Reset()
	if e.retry != nil {
		e.retriedBase = e.retry.Retries()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.accessLog = nil
	if e.termUse != nil {
		e.termUse = make(map[string]int64)
	}
}

// AccessLog returns the sizes (bytes) of the inverted lists fetched
// since the last reset, in access order. Empty unless WithAccessLog.
// Under concurrency the order interleaves per-query flushes.
func (e *Engine) AccessLog() []uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]uint32(nil), e.accessLog...)
}

// TermUse returns per-term lookup counts since the last reset. Empty
// unless WithTermUse.
func (e *Engine) TermUse() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64, len(e.termUse))
	for t, n := range e.termUse {
		out[t] = n
	}
	return out
}

// refOf maps a dictionary entry to the backend's record handle: the
// term id keys the B-tree; the stored Mneme object identifier locates
// the object.
func (e *Engine) refOf(entry *lexicon.Entry) (uint64, bool) {
	switch e.kind {
	case BackendBTree:
		return uint64(entry.ID), entry.DF > 0
	default:
		return entry.Ref, entry.Ref != 0
	}
}

// reserve scans the query tree and pins the inverted lists that are
// already resident — INQUERY's pre-evaluation reservation pass. The
// returned pin releases exactly this query's reservations.
func (e *Engine) reserve(n *inference.Node) Pin {
	if e.opts.DisableReserve {
		return noPin{}
	}
	terms := n.Terms()
	refs := make([]uint64, 0, len(terms))
	for _, t := range terms {
		if entry, ok := e.dict.Lookup(t); ok {
			if ref, ok := e.refOf(entry); ok {
				refs = append(refs, ref)
			}
		}
	}
	return e.backend.Reserve(refs)
}

// Result re-exports the ranked-document type.
type Result = inference.Result

// NumDocs implements inference.Source. On a shard engine
// (WithGlobalStats) it reports the whole collection's document count:
// belief scores depend on n, and a shard using its local count would
// rank differently from an unsharded build.
func (e *Engine) NumDocs() int {
	if g := e.opts.Global; g != nil {
		return g.NumDocs
	}
	return len(e.docLens)
}

// LocalDocs is the number of documents physically resident in this
// engine — equal to NumDocs except on a shard engine.
func (e *Engine) LocalDocs() int { return len(e.docLens) }

// DocLen implements inference.Source.
func (e *Engine) DocLen(doc uint32) int {
	if int(doc) >= len(e.docLens) {
		return 0
	}
	return int(e.docLens[doc])
}

// AvgDocLen implements inference.Source, using the collection-global
// mean on a shard engine (see NumDocs).
func (e *Engine) AvgDocLen() float64 {
	if g := e.opts.Global; g != nil {
		if g.NumDocs == 0 {
			return 0
		}
		return float64(g.TotalLen) / float64(g.NumDocs)
	}
	if len(e.docLens) == 0 {
		return 0
	}
	return float64(e.total) / float64(len(e.docLens))
}

// ListSize returns the encoded size of a term's inverted list without
// fetching it (from the dictionary), for distribution analyses.
func (e *Engine) ListSize(term string) (int, bool) {
	entry, ok := e.dict.Lookup(e.an.Normalize(term))
	if !ok {
		return 0, false
	}
	return int(entry.ListBytes), true
}

// SaveMeta persists the dictionary and document table (after updates)
// and flushes the backend — a commit point, so both caches are
// invalidated on the way out.
func (e *Engine) SaveMeta() error {
	defer e.InvalidateCaches()
	if err := saveLexicon(e.fs, e.name, e.dict); err != nil {
		return err
	}
	if err := saveDocMeta(e.fs, e.name, e.docLens, e.total); err != nil {
		return err
	}
	return e.backend.Flush()
}

// Explain returns the belief breakdown a query assigns to one document:
// the inference network's per-node evidence combination, with leaf-level
// tf/df detail. The root belief equals the document's ranked score.
func (e *Engine) Explain(query string, doc uint32) (*inference.Explanation, error) {
	return e.Acquire().Explain(query, doc)
}

// TraceRun evaluates one request with a trace recorder attached
// through every layer — searcher (lexicon/fetch spans), inference
// (score spans), backend (buffer hit/miss, fault-in spans, node reads),
// and the file system (simulated-disk I/O events) — and returns the
// response (results plus the per-request counter delta) together with
// the finished trace.
//
// Tracing is a single-stream diagnostic: the recorder is attached to the
// shared file system and backend for the duration of the call, so
// TraceRun must not run concurrently with other requests on the same
// engine (or any engine sharing the FS). Ordinary Run calls pay nothing
// for this facility: their recorder fields stay nil.
func (e *Engine) TraceRun(req Request) (Response, *obs.Trace, error) {
	tr := obs.NewTrace(req.Query)
	e.fs.SetRecorder(tr)
	e.backend.SetRecorder(tr)
	defer func() {
		e.backend.SetRecorder(nil)
		e.fs.SetRecorder(nil)
	}()
	s := e.Acquire()
	s.SetRecorder(tr)
	resp, err := s.Run(nil, req)
	tr.Finish()
	return resp, tr, err
}
