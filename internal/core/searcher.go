package core

import (
	"context"
	"errors"
	"io"
	"sync"

	"repro/internal/btree"
	"repro/internal/inference"
	"repro/internal/lexicon"
	"repro/internal/mneme"
	"repro/internal/obs"
	"repro/internal/postings"
	"repro/internal/resilience"
	"repro/internal/vfs"
)

// Searcher is one query stream's view of a shared Engine. It owns all
// per-query mutable state — work counters, the access log and term-use
// deltas, and (through the backend Pin) reservation pins — so any
// number of searchers can evaluate queries over the same engine
// concurrently. A searcher itself is not safe for concurrent use; use
// one per goroutine.
//
// The searcher's Counters cover everything it has evaluated. At the end
// of every Run / Explain call the delta since the last
// flush is merged into the engine's atomic aggregates, so the engine
// totals reconcile exactly with a serial run regardless of interleaving.
type Searcher struct {
	e        *Engine
	counters Counters // cumulative work of this searcher
	flushed  Counters // portion already merged into the engine

	// opLog and opTerms buffer the unflushed access-log and term-use
	// deltas, so the engine lock is taken once per query, not per lookup.
	opLog   []uint32
	opTerms map[string]int64

	// iters tracks the iterators the in-flight query opened, so their
	// skip statistics (postings/blocks/chunks never touched) can be
	// settled into the counters when evaluation ends.
	iters []*countingIterator

	// pooled tracks decoded-posting scratch buffers borrowed from
	// postingBufPool for the in-flight query; flush returns them.
	pooled []*[]postings.Posting

	// rec, when non-nil, receives lexicon and fetch spans and lookup
	// events for every record access. Nil during ordinary searches: the
	// only per-access cost of the tracing facility is this nil check.
	rec obs.Recorder

	// dl is the in-flight request's deadline, armed only for the
	// duration of a Run call.
	dl deadline

	// reqDegraded and reqPrune are the in-flight Request's per-query
	// overrides of the engine-level WithDegraded / WithPruning
	// options, set only for the duration of a Run call.
	reqDegraded bool
	reqPrune    bool

	// start is the counter state when the in-flight request's view
	// opened, the base of its delta.
	start Counters
}

// deadline latches the first observed expiry of a request's context so
// DeadlineHits counts requests, not checks. ctx is set only while a
// request whose context can actually expire (ctx.Done() != nil) is in
// flight — a plain request pays one nil check per boundary and nothing
// more.
type deadline struct {
	ctx context.Context
	hit bool
}

// arm resets the latch for a new request.
func (d *deadline) arm(ctx context.Context) {
	d.ctx, d.hit = nil, false
	if ctx != nil && ctx.Done() != nil {
		d.ctx = ctx
	}
}

// expired reports whether the request's context has expired, charging
// the first hit to c.DeadlineHits.
func (d *deadline) expired(c *Counters) bool {
	if d.ctx == nil {
		return false
	}
	if d.hit {
		return true
	}
	if d.ctx.Err() != nil {
		d.hit = true
		c.DeadlineHits++
		return true
	}
	return false
}

// SetRecorder attaches (nil detaches) a trace recorder to this searcher.
func (s *Searcher) SetRecorder(r obs.Recorder) { s.rec = r }

// ObsRecorder implements obs.Traced, letting the inference evaluators
// discover the recorder through the Source they are handed.
func (s *Searcher) ObsRecorder() obs.Recorder { return s.rec }

// Acquire returns a new searcher over the engine.
func (e *Engine) Acquire() *Searcher { return &Searcher{e: e} }

// Engine returns the shared engine this searcher evaluates against.
func (s *Searcher) Engine() *Engine { return s.e }

// Counters returns the work this searcher has performed.
func (s *Searcher) Counters() Counters { return s.counters }

// postingBufPool recycles the backing arrays of decoded posting slices
// across queries on the materializing (TAAT / DecodeAll) path. Only the
// []Posting array is pooled; Positions slices are fresh per decode, so
// evaluators may retain them. Elements are cleared before return so a
// pooled array pins no Positions memory.
var postingBufPool = sync.Pool{
	New: func() any {
		b := make([]postings.Posting, 0, 256)
		return &b
	},
}

// finishIters settles skip statistics from every iterator the query
// opened. Runs after evaluation, before the counter flush.
func (s *Searcher) finishIters() {
	for _, ci := range s.iters {
		ci.finish()
	}
	s.iters = s.iters[:0]
}

// flush merges the searcher's unmerged work into the engine.
func (s *Searcher) flush() {
	for _, bp := range s.pooled {
		b := *bp
		for i := range b {
			b[i] = postings.Posting{}
		}
		*bp = b[:0]
		postingBufPool.Put(bp)
	}
	s.pooled = s.pooled[:0]
	e := s.e
	d := s.counters.Sub(s.flushed)
	e.agg.add(d)
	e.met.observeQuery(d)
	s.flushed = s.counters
	if len(s.opLog) == 0 && len(s.opTerms) == 0 {
		return
	}
	e.mu.Lock()
	e.accessLog = append(e.accessLog, s.opLog...)
	if e.termUse != nil {
		for t, n := range s.opTerms {
			e.termUse[t] += n
		}
	}
	e.mu.Unlock()
	s.opLog = nil
	s.opTerms = nil
}

// expired reports whether the in-flight query's context has expired,
// latching the first hit into Counters.DeadlineHits.
func (s *Searcher) expired() bool { return s.dl.expired(&s.counters) }

// Explain returns the belief breakdown a query assigns to one document.
func (s *Searcher) Explain(query string, doc uint32) (*inference.Explanation, error) {
	return s.e.explain(query, doc, s)
}

// A Searcher is a plain engine's queryTarget and its own queryView:
// the request's work lands in the searcher's counters, and end merges
// it into the engine through flush.

func (s *Searcher) cacheScope() string { return "" }

func (s *Searcher) account(d Counters) {
	s.counters = s.counters.Add(d)
	s.flush()
}

func (s *Searcher) view(ctx context.Context, req Request) queryView {
	s.start = s.counters
	s.dl.arm(ctx)
	s.reqDegraded, s.reqPrune = req.Degraded, req.Prune
	return s
}

func (s *Searcher) work() *Counters { return &s.counters }

func (s *Searcher) reserve(n *inference.Node) Pin { return s.e.reserve(n) }

func (s *Searcher) end() (Counters, bool) {
	s.finishIters()
	s.flush()
	cut := s.dl.hit
	s.dl.ctx, s.reqDegraded, s.reqPrune = nil, false, false
	return s.counters.Sub(s.start), cut
}

// countLookup maintains the counters the experiments report for one
// inverted-list record lookup of the given encoded size.
func (s *Searcher) countLookup(term string, size uint32) {
	s.counters.Lookups++
	s.counters.BytesFetched += int64(size)
	s.e.met.fetchBytes.Observe(int64(size))
	if s.e.opts.LogAccesses {
		s.opLog = append(s.opLog, size)
	}
	if s.e.opts.TrackTermUse {
		if s.opTerms == nil {
			s.opTerms = make(map[string]int64)
		}
		s.opTerms[term]++
	}
}

// isCorruption reports whether an error is a storage-integrity failure
// (checksum mismatch, injected or short I/O, undecodable record) rather
// than a usage error — the class a degraded search may survive.
func isCorruption(err error) bool {
	return errors.Is(err, mneme.ErrCorrupt) ||
		errors.Is(err, btree.ErrCorrupt) ||
		errors.Is(err, postings.ErrCorrupt) ||
		errors.Is(err, vfs.ErrInjected) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// degrade decides whether a failed record fetch is survivable: under
// WithDegraded (or a Request with Degraded set), a corruption-class
// error — or a fast-fail rejection from an open circuit breaker, which
// shields the rest of the query from a failing pool — is counted in
// CorruptRecords and the term is scored as absent; any other error (or
// a strict engine) aborts the query.
func (s *Searcher) degrade(err error) bool {
	if !s.e.opts.DegradedOK && !s.reqDegraded {
		return false
	}
	if !isCorruption(err) && !errors.Is(err, resilience.ErrBreakerOpen) {
		return false
	}
	s.counters.CorruptRecords++
	return true
}

// lookupRef resolves a term through the hash dictionary to a backend
// record ref, bracketed by a lexicon span when tracing.
func (s *Searcher) lookupRef(term string) (uint64, *lexicon.Entry, bool) {
	e := s.e
	if s.rec != nil {
		s.rec.BeginSpan(obs.StageLexicon, term)
	}
	var ref uint64
	entry, ok := e.dict.Lookup(term)
	if ok {
		ref, ok = e.refOf(entry)
	}
	if s.rec != nil {
		if ok {
			s.rec.Event(obs.EvLookup, term, 1)
		}
		s.rec.EndSpan()
	}
	return ref, entry, ok
}

// fetchRecord performs one inverted-list record lookup through the
// backend. A query whose context has expired fetches nothing more:
// the term reads as absent and the deadline is reported at query end.
func (s *Searcher) fetchRecord(term string) ([]byte, bool, error) {
	if s.expired() {
		return nil, false, nil
	}
	ref, _, ok := s.lookupRef(term)
	if !ok {
		return nil, false, nil
	}
	return s.fetchRef(term, ref)
}

// fetchRef is fetchRecord after ref resolution: the traced backend
// fetch, degraded-mode error handling, and lookup accounting.
func (s *Searcher) fetchRef(term string, ref uint64) ([]byte, bool, error) {
	if s.rec != nil {
		s.rec.BeginSpan(obs.StageFetch, term)
	}
	rec, err := s.e.backend.Fetch(ref)
	if s.rec != nil {
		s.rec.EndSpan()
	}
	if err != nil {
		if s.degrade(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	s.countLookup(term, uint32(len(rec)))
	return rec, true, nil
}

// Postings implements inference.Source. The decoded slice's backing
// array is borrowed from postingBufPool and reclaimed when the query
// flushes; callers (the TAAT evaluator, Explain) must not retain it
// past evaluation. Positions slices are fresh allocations and safe to
// keep. On an engine with a block cache the slice may instead be a
// shared cached decode, which callers must treat as read-only — the
// same contract, since retaining was already forbidden.
func (s *Searcher) Postings(term string) ([]postings.Posting, bool, error) {
	if bc := s.e.blocks; bc != nil {
		return s.cachedPostings(bc, term)
	}
	rec, ok, err := s.fetchRecord(term)
	if err != nil || !ok {
		return nil, false, err
	}
	bufp := postingBufPool.Get().(*[]postings.Posting)
	ps, err := postings.AppendAll((*bufp)[:0], rec)
	*bufp = ps // full length: flush clears the elements before pooling
	s.pooled = append(s.pooled, bufp)
	if err != nil {
		if s.degrade(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	s.counters.Postings += int64(len(ps))
	return ps, true, nil
}

// cachedPostings is the TAAT materializing path over the block cache:
// the whole decoded record is cached under a pseudo block index, so a
// repeated term skips the backend fetch and the decode. Cache fills
// decode into fresh (unpooled) allocations — cached slices are shared
// across queries and must never be recycled.
func (s *Searcher) cachedPostings(bc *blockCache, term string) ([]postings.Posting, bool, error) {
	if s.expired() {
		return nil, false, nil
	}
	ref, _, ok := s.lookupRef(term)
	if !ok {
		return nil, false, nil
	}
	key := blockKey{gen: s.e.gen.Load(), ref: ref, blk: wholeRecordBlk}
	if ps, ok := bc.get(key); ok {
		s.counters.BlockCacheHits++
		s.counters.Postings += int64(len(ps))
		return ps, true, nil
	}
	s.counters.BlockCacheMisses++
	rec, ok, err := s.fetchRef(term, ref)
	if err != nil || !ok {
		return nil, false, err
	}
	ps, err := postings.DecodeAll(rec)
	if err != nil {
		if s.degrade(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	s.counters.Postings += int64(len(ps))
	bc.put(key, ps)
	return ps, true, nil
}

// Iterator implements inference.StreamSource. Chunked records (see
// WithChunking) are decoded as they stream off their chunk storage
// instead of being materialized first: indexed chunked records get
// random access, so a block-format (v2) record iterated with Advance
// faults in only the chunks holding blocks it actually decodes; linked
// chunked records stream sequentially, one chunk's segment buffered at
// a time. Whole records dispatch on their encoding version.
func (s *Searcher) Iterator(term string) (inference.PostingIterator, bool, error) {
	e := s.e
	if s.expired() {
		return nil, false, nil
	}
	ref, entry, ok := s.lookupRef(term)
	if !ok {
		return nil, false, nil
	}
	if rr, ranges := e.backend.(RecordRanger); ranges {
		cr, ok, err := rr.RangeRecord(ref)
		if err != nil {
			if s.degrade(err) {
				return nil, false, nil
			}
			return nil, false, err
		}
		if ok {
			s.countLookup(term, entry.ListBytes)
			return s.track(s.attachBlockCache(s.rangeIterator(cr), ref)), true, nil
		}
	}
	if rs, streams := e.backend.(RecordStreamer); streams {
		if r, ok := rs.StreamRecord(ref); ok {
			s.countLookup(term, entry.ListBytes)
			return s.track(s.counting(postings.NewStreamReader(r), nil)), true, nil
		}
	}
	if s.rec != nil {
		s.rec.BeginSpan(obs.StageFetch, term)
	}
	rec, err := e.backend.Fetch(ref)
	if s.rec != nil {
		s.rec.EndSpan()
	}
	if err != nil {
		if s.degrade(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	s.countLookup(term, uint32(len(rec)))
	ci := s.counting(postings.Iter(rec), nil)
	return s.track(s.attachBlockCache(ci, ref)), true, nil
}

// counting wraps a record iterator in the searcher's accounting.
func (s *Searcher) counting(it recordIterator, cr *mneme.ChunkRange) *countingIterator {
	return &countingIterator{it: it, c: &s.counters, dl: &s.dl, rec: s.rec, cr: cr}
}

// track registers an iterator for end-of-query skip accounting.
func (s *Searcher) track(ci *countingIterator) *countingIterator {
	s.iters = append(s.iters, ci)
	return ci
}

// attachBlockCache points a skip-capable reader at the engine's decoded
// block cache (when one is configured): v2 readers cache per block body,
// v3 bitmap readers cache the whole decoded record. Stream (v1) readers
// have no block structure and are left alone.
func (s *Searcher) attachBlockCache(ci *countingIterator, ref uint64) *countingIterator {
	bc := s.e.blocks
	if bc == nil {
		return ci
	}
	view := &blockCacheView{c: bc, s: s, gen: s.e.gen.Load(), ref: ref}
	switch it := ci.it.(type) {
	case *postings.BlockReader:
		it.SetBlockCache(view)
	case *postings.BitmapReader:
		it.SetBlockCache(view)
	}
	return ci
}

// rangeIterator builds the iterator over an indexed chunked record: a
// skip-capable BlockReader or BitmapReader when the record is versioned,
// otherwise a sequential stream decoder fed chunk by chunk. The version
// is decided by peeking the record's first bytes — one chunk fault,
// which the sequential path would pay anyway and the versioned paths
// re-read as part of their headers.
func (s *Searcher) rangeIterator(cr *mneme.ChunkRange) *countingIterator {
	if cr.Size() > 2 {
		if magic, err := cr.ReadRange(0, 3); err == nil {
			if postings.IsV2(magic) {
				return s.counting(postings.NewBlockRangeReader(chunkRangeSource{cr}), cr)
			}
			if postings.IsV3(magic) {
				return s.counting(postings.NewBitmapRangeReader(chunkRangeSource{cr}), cr)
			}
		}
	}
	return s.counting(postings.NewStreamReader(&chunkRangeReader{cr: cr}), cr)
}

// chunkRangeSource adapts mneme.ChunkRange to postings.RangeSource.
type chunkRangeSource struct{ cr *mneme.ChunkRange }

func (c chunkRangeSource) ReadRange(off, n int) ([]byte, error) { return c.cr.ReadRange(off, n) }
func (c chunkRangeSource) Size() int                            { return c.cr.Size() }

// chunkRangeReader adapts a ChunkRange to io.Reader for sequential
// consumption of v1-encoded payloads.
type chunkRangeReader struct {
	cr  *mneme.ChunkRange
	off int
}

func (r *chunkRangeReader) Read(p []byte) (int, error) {
	n := min(len(p), r.cr.Size()-r.off)
	if n <= 0 {
		return 0, io.EOF
	}
	b, err := r.cr.ReadRange(r.off, n)
	if err != nil {
		return 0, err
	}
	copy(p, b)
	r.off += n
	return n, nil
}

// NumDocs implements inference.Source.
func (s *Searcher) NumDocs() int { return s.e.NumDocs() }

// DocLen implements inference.Source.
func (s *Searcher) DocLen(doc uint32) int { return s.e.DocLen(doc) }

// AvgDocLen implements inference.Source.
func (s *Searcher) AvgDocLen() float64 { return s.e.AvgDocLen() }

// TermDF implements inference.DFSource on shard engines: it reports the
// collection-global document frequency for a term so shard-local belief
// scores match the unsharded build's. The DF table is keyed by
// normalized (lexicon) terms, which is what the evaluators pass here.
// ok=false (always, on unsharded engines) tells the evaluator to use
// the local list length.
func (s *Searcher) TermDF(term string) (uint64, bool) {
	g := s.e.opts.Global
	if g == nil {
		return 0, false
	}
	df, ok := g.DF[term]
	return df, ok
}

// recordIterator is the shape shared by the in-memory and streaming
// posting decoders.
type recordIterator interface {
	Next() (postings.Posting, bool)
	DF() uint64
	Err() error
}

// deadlineCheckEvery is how many streamed postings pass between context
// checks inside a countingIterator — frequent enough to cut a huge list
// off promptly, rare enough to cost nothing measurable per posting.
const deadlineCheckEvery = 256

// countingIterator counts postings into the owning view's counters as
// they stream past — a segment searcher's, or an NRT query's own for
// memtable postings. The evaluators fully consume iterators before
// returning, so the counts land before the query's flush. When tracing,
// each posting also lands as an event on the innermost open span (the
// DAAT score span during evaluation). Every deadlineCheckEvery postings
// the owning query's deadline is checked, so an expired query stops
// mid-list instead of draining a multi-megabyte stream.
type countingIterator struct {
	it   recordIterator
	c    *Counters
	dl   *deadline
	rec  obs.Recorder
	n    int64             // postings streamed, for the periodic deadline check
	cr   *mneme.ChunkRange // chunked storage behind it, for skip accounting
	done bool
}

func (ci *countingIterator) Next() (postings.Posting, bool) {
	ci.n++
	if ci.n%deadlineCheckEvery == 0 && ci.dl.expired(ci.c) {
		return postings.Posting{}, false
	}
	p, ok := ci.it.Next()
	if ok {
		ci.c.Postings++
		if ci.rec != nil {
			ci.rec.Event(obs.EvPostings, "", 1)
		}
	}
	return p, ok
}

func (ci *countingIterator) DF() uint64 { return ci.it.DF() }
func (ci *countingIterator) Err() error { return ci.it.Err() }

// Advance implements inference.AdvancingIterator: block readers skip
// whole blocks (and, through chunked storage, whole chunks); sequential
// decoders fall back to a linear scan, which still counts every decoded
// posting.
func (ci *countingIterator) Advance(target uint32) (postings.Posting, bool) {
	adv, ok := ci.it.(interface {
		Advance(uint32) (postings.Posting, bool)
	})
	if !ok {
		for {
			p, ok := ci.Next()
			if !ok || p.Doc >= target {
				return p, ok
			}
		}
	}
	ci.n++
	if ci.n%deadlineCheckEvery == 0 && ci.dl.expired(ci.c) {
		return postings.Posting{}, false
	}
	p, found := adv.Advance(target)
	if found {
		ci.c.Postings++
		if ci.rec != nil {
			ci.rec.Event(obs.EvPostings, "", 1)
		}
	}
	return p, found
}

// MaxTF implements inference.BoundedIterator when the underlying record
// format carries a maximum term frequency (v2 block descriptors, v3
// bitmap header, memtable lists).
func (ci *countingIterator) MaxTF() (uint32, bool) {
	switch it := ci.it.(type) {
	case *postings.BlockReader:
		return it.MaxTF(), true
	case *postings.BitmapReader:
		return it.MaxTF(), true
	case *memIter:
		return it.MaxTF()
	}
	return 0, false
}

// finish settles the iterator's skip statistics into the searcher's
// counters: postings and blocks an Advance jumped past, and storage
// chunks never faulted in. Idempotent.
func (ci *countingIterator) finish() {
	if ci.done {
		return
	}
	ci.done = true
	switch it := ci.it.(type) {
	case *postings.BlockReader:
		st := it.FinishStats()
		ci.c.PostingsSkipped += int64(st.Postings)
		ci.c.BlocksSkipped += int64(st.Blocks)
	case *postings.BitmapReader:
		st := it.FinishStats()
		ci.c.PostingsSkipped += int64(st.Postings)
		ci.c.BlocksSkipped += int64(st.Blocks)
	}
	if ci.cr != nil {
		ci.c.ChunksSkipped += int64(ci.cr.Chunks() - ci.cr.Faulted())
	}
}
