package core

import (
	"context"
	"strconv"

	"repro/internal/inference"
	"repro/internal/postings"
)

// Run evaluates one Request against the live collection: every flushed
// segment plus the searchable memtable tail. It runs the plain engine's
// lifecycle (see Searcher.Run for the contract); only the view differs.
// Rankings are identical to a batch build of the same document prefix
// because the merged per-term list — segment lists concatenated with
// the watermark-truncated memtable list — is exactly the batch list,
// and document statistics come from the same append-only tables. Safe
// for concurrent use, including concurrently with Ingest, Flush, and
// Compact.
func (e *NRTEngine) Run(ctx context.Context, req Request) (Response, error) {
	return e.run(ctx, req, e)
}

// Explain returns the belief breakdown a query assigns to one document,
// evaluated over the same merged view a Run would see.
func (e *NRTEngine) Explain(query string, doc uint32) (*inference.Explanation, error) {
	return e.explain(query, doc, e)
}

// cacheScope implements queryTarget: result-cache keys embed the
// visibility watermark, so a memoized ranking can only be served to a
// query that would see the exact same document prefix — ingest moves
// the watermark and thereby invalidates, while flush and compaction
// flips (which preserve rankings by construction) don't need to. A
// probe reads the watermark only: no view lock, no segment searcher.
func (e *NRTEngine) cacheScope() string {
	e.pubMu.Lock()
	w := e.docCount
	e.pubMu.Unlock()
	return watermarkScope(w)
}

// watermarkScope renders a visibility watermark as a result-cache key
// prefix.
func watermarkScope(w uint32) string {
	return strconv.FormatUint(uint64(w), 10) + "\x00"
}

// nrtQuery is one request's consistent cut of the live collection: a
// sub-searcher per segment, the memtable, and the visibility watermark
// with its document statistics, all captured at query start. It
// implements inference.Source, StreamSource, and DFSource by
// concatenating per-segment lists with the memtable tail — the doc-ID
// ranges are disjoint and ascending by construction, so concatenation
// is the merge.
type nrtQuery struct {
	e    *NRTEngine
	subs []*Searcher // one per segment, in doc order
	mem  *memtable
	w    uint32   // visibility watermark: docs < w are in scope
	lens []uint32 // per-doc token counts for docs < w
	toks int64    // total token count across docs < w
	own  Counters // work not attributable to a sub-searcher
	dl   deadline // the memtable's deadline latch
}

// view implements queryTarget. The query holds the view read-lock
// until end: flush/compact flips wait for it, so the captured segment
// engines cannot be closed underfoot.
func (e *NRTEngine) view(ctx context.Context, req Request) queryView {
	e.viewMu.RLock()
	q := &nrtQuery{e: e, mem: e.mem}
	e.pubMu.Lock()
	q.w = e.docCount
	q.lens = e.lens[:q.w]
	q.toks = e.totalToks
	e.pubMu.Unlock()
	q.dl.arm(ctx)
	for _, s := range e.segs {
		sub := s.eng.Acquire()
		sub.view(ctx, req)
		q.subs = append(q.subs, sub)
	}
	return q
}

func (q *nrtQuery) cacheScope() string { return watermarkScope(q.w) }

func (q *nrtQuery) work() *Counters { return &q.own }

// reserve pins resident lists in every segment.
func (q *nrtQuery) reserve(n *inference.Node) Pin {
	pins := make(pinSet, len(q.subs))
	for i, sub := range q.subs {
		pins[i] = sub.e.reserve(n)
	}
	return pins
}

// pinSet releases one reservation per segment.
type pinSet []Pin

func (p pinSet) Release() {
	for _, pin := range p {
		pin.Release()
	}
}

// end settles every sub-searcher (skip statistics, pooled buffers,
// engine-aggregate merges on the segment engines), folds the combined
// delta into the NRT aggregates, and releases the view lock.
func (q *nrtQuery) end() (Counters, bool) {
	delta, cut := q.own, q.dl.hit
	for _, sub := range q.subs {
		d, c := sub.end()
		delta = delta.Add(d)
		cut = cut || c
	}
	// Each searcher latches its own deadline hit; a query is cut short once.
	if delta.DeadlineHits > 1 {
		delta.DeadlineHits = 1
	}
	q.e.account(delta)
	q.e.viewMu.RUnlock()
	return delta, cut
}

// Postings implements inference.Source: the materialized merged list
// for term — segment lists in segment order, then the memtable's
// watermark-truncated tail. The returned slice is freshly allocated
// (sub-searcher buffers are pooled and reclaimed at end).
func (q *nrtQuery) Postings(term string) ([]postings.Posting, bool, error) {
	var out []postings.Posting
	found := false
	for _, sub := range q.subs {
		ps, ok, err := sub.Postings(term)
		if err != nil {
			return nil, false, err
		}
		if ok {
			out = append(out, ps...)
			found = true
		}
	}
	if !q.expired() {
		if mps, _ := q.mem.lookup(term, q.w); len(mps) > 0 {
			q.own.Lookups++
			q.own.Postings += int64(len(mps))
			out = append(out, mps...)
			found = true
		}
	}
	if !found {
		return nil, false, nil
	}
	return out, true, nil
}

// Iterator implements inference.StreamSource: the per-segment streaming
// iterators chained with the memtable iterator. The chain advances
// block-skipping segment readers natively and reports an exact summed
// DF, so DAAT and MaxScore evaluation over an NRT view match the
// batch-built equivalent.
func (q *nrtQuery) Iterator(term string) (inference.PostingIterator, bool, error) {
	var parts []inference.PostingIterator
	for _, sub := range q.subs {
		it, ok, err := sub.Iterator(term)
		if err != nil {
			return nil, false, err
		}
		if ok {
			parts = append(parts, it)
		}
	}
	if !q.expired() {
		if mi := q.mem.iterator(term, q.w); mi != nil {
			q.own.Lookups++
			parts = append(parts, &countingIterator{it: mi, c: &q.own, dl: &q.dl})
		}
	}
	if len(parts) == 0 {
		return nil, false, nil
	}
	return inference.NewChain(parts...), true, nil
}

// NumDocs implements inference.Source: the watermark, so belief scores
// use the collection size this query was admitted against.
func (q *nrtQuery) NumDocs() int { return int(q.w) }

// DocLen implements inference.Source.
func (q *nrtQuery) DocLen(doc uint32) int {
	if doc < q.w {
		return int(q.lens[doc])
	}
	return 0
}

// AvgDocLen implements inference.Source.
func (q *nrtQuery) AvgDocLen() float64 {
	if q.w == 0 {
		return 0
	}
	return float64(q.toks) / float64(q.w)
}

// TermDF implements inference.DFSource. The chained iterator's DF (and
// the materialized list's length) already is the collection-global
// document frequency — segments partition the doc space — so there is
// no override table.
func (q *nrtQuery) TermDF(string) (uint64, bool) { return 0, false }

// expired is the memtable's deadline check, latched like a segment
// searcher's.
func (q *nrtQuery) expired() bool { return q.dl.expired(&q.own) }
