package inference

import (
	"container/heap"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/postings"
)

// PostingIterator streams one inverted list in document order.
type PostingIterator interface {
	// Next returns the next posting; ok=false at the end of the list.
	Next() (p postings.Posting, ok bool)
	// DF is the term's document frequency from the record header.
	DF() uint64
	// Err reports a decoding error, if any, after Next returns false.
	Err() error
}

// StreamSource supplies posting iterators for document-at-a-time
// evaluation, "which gathered all of the evidence for one document
// before proceeding to the next" (paper §3.1). The paper notes this
// "might scale better to large collections" but "would be cumbersome
// with the current custom B-tree package"; Mneme's chunked objects make
// the streaming access pattern natural.
type StreamSource interface {
	// Iterator opens a stream over a term's list; ok=false when absent.
	Iterator(term string) (it PostingIterator, ok bool, err error)
	NumDocs() int
	DocLen(doc uint32) int
	AvgDocLen() float64
}

// sliceIterator adapts a decoded posting slice to PostingIterator; used
// by sources that materialize lists and by tests.
type sliceIterator struct {
	ps []postings.Posting
	i  int
}

// NewSliceIterator wraps an already-decoded list.
func NewSliceIterator(ps []postings.Posting) PostingIterator {
	return &sliceIterator{ps: ps}
}

func (s *sliceIterator) Next() (postings.Posting, bool) {
	if s.i >= len(s.ps) {
		return postings.Posting{}, false
	}
	p := s.ps[s.i]
	s.i++
	return p, true
}

func (s *sliceIterator) DF() uint64 { return uint64(len(s.ps)) }
func (s *sliceIterator) Err() error { return nil }

// peekIter keeps the iterator's current posting exposed.
type peekIter struct {
	it  PostingIterator
	cur postings.Posting
	ok  bool
}

func (p *peekIter) advance() {
	p.cur, p.ok = p.it.Next()
}

// leafState is one evidence leaf of the DAAT evaluation: a term, a
// synonym class, or a proximity expression over terms.
type leafState struct {
	node  *Node
	iters []*peekIter
	df    uint64 // exact for terms; estimated for compound leaves
}

// EvaluateDAAT evaluates the query document-at-a-time: all leaf streams
// advance together, and each candidate document's belief is computed
// completely before moving to the next document. For compound leaves
// (synonyms, proximity) the document frequency needed by the belief
// function is not known until the streams are exhausted, so it is
// estimated from the children's header statistics — the one respect in
// which DAAT scores can differ slightly from TAAT on such queries.
func EvaluateDAAT(n *Node, src StreamSource, topK int) ([]Result, error) {
	if containsFilter(n) {
		return nil, fmt.Errorf("inference: #filreq/#filrej require term-at-a-time evaluation")
	}
	leaves := make(map[*Node]*leafState)
	if err := collectLeaves(n, src, leaves); err != nil {
		return nil, err
	}
	// Gather iterators in tree order, not map order: the advance order
	// fixes the storage access sequence, and a deterministic sequence
	// keeps buffer hit counts and fault-in traces reproducible. The
	// gather slice is pooled across queries; elements are cleared on
	// return so pooled arrays pin no iterators.
	allp := gatherPool.Get().(*[]*peekIter)
	all := (*allp)[:0]
	defer func() {
		for i := range all {
			all[i] = nil
		}
		*allp = all[:0]
		gatherPool.Put(allp)
	}()
	var gather func(*Node)
	gather = func(n *Node) {
		if ls, ok := leaves[n]; ok {
			all = append(all, ls.iters...)
			return
		}
		for _, c := range n.Children {
			gather(c)
		}
	}
	gather(n)

	// The whole document-at-a-time sweep is one scoring span: postings
	// stream past inside it (via the source's counting iterators), and
	// any lazily-faulted chunk I/O nests as child spans.
	if rec := recorderOf(src); rec != nil {
		rec.BeginSpan(obs.StageScore, "daat")
		defer rec.EndSpan()
	}

	h := &resultHeap{}
	heap.Init(h)
	for {
		// The next candidate is the minimum current document.
		candidate := int64(-1)
		for _, pi := range all {
			if pi.ok && (candidate < 0 || int64(pi.cur.Doc) < candidate) {
				candidate = int64(pi.cur.Doc)
			}
		}
		if candidate < 0 {
			break
		}
		doc := uint32(candidate)
		score := evalDocNode(n, doc, leaves, src)
		if topK <= 0 || h.Len() < topK {
			heap.Push(h, Result{Doc: doc, Score: score})
		} else if top := (*h)[0]; RankedBefore(Result{Doc: doc, Score: score}, top) {
			(*h)[0] = Result{Doc: doc, Score: score}
			heap.Fix(h, 0)
		}
		for _, pi := range all {
			if pi.ok && pi.cur.Doc == doc {
				pi.advance()
			}
		}
	}
	for _, pi := range all {
		if err := pi.it.Err(); err != nil {
			return nil, err
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, nil
}

// containsFilter reports whether the tree uses a filter operator,
// whose candidate-set semantics need the full accumulator pass.
func containsFilter(n *Node) bool {
	if n.Op == OpFilReq || n.Op == OpFilRej {
		return true
	}
	for _, c := range n.Children {
		if containsFilter(c) {
			return true
		}
	}
	return false
}

// collectLeaves opens iterators for every evidence leaf in the tree.
func collectLeaves(n *Node, src StreamSource, leaves map[*Node]*leafState) error {
	switch n.Op {
	case OpTerm:
		ls := &leafState{node: n}
		it, ok, err := src.Iterator(n.Term)
		if err != nil {
			return err
		}
		if ok {
			pi := &peekIter{it: it}
			pi.advance()
			ls.iters = []*peekIter{pi}
			ls.df = termDF(src, n.Term, it.DF())
		}
		leaves[n] = ls
		return nil
	case OpSyn, OpOrderedWindow, OpUnorderedWindow:
		ls := &leafState{node: n}
		for _, c := range n.Children {
			it, ok, err := src.Iterator(c.Term)
			if err != nil {
				return err
			}
			if !ok {
				if n.Op != OpSyn {
					// A proximity expression with a missing term can
					// never match; drop all its iterators.
					ls.iters = nil
					ls.df = 0
					leaves[n] = ls
					return nil
				}
				// A synonym child absent from this shard's slice may
				// still exist elsewhere: its global df must count
				// toward the class bound or sharded scores drift.
				ls.df += termDF(src, c.Term, 0)
				continue
			}
			pi := &peekIter{it: it}
			pi.advance()
			ls.iters = append(ls.iters, pi)
			cdf := termDF(src, c.Term, it.DF())
			switch {
			case n.Op == OpSyn:
				ls.df += cdf // upper bound for a synonym class
			case ls.df == 0 || cdf < ls.df:
				ls.df = cdf // lower child df bounds proximity df
			}
		}
		if n.Op == OpSyn && uint64(src.NumDocs()) < ls.df {
			ls.df = uint64(src.NumDocs())
		}
		leaves[n] = ls
		return nil
	}
	for _, c := range n.Children {
		if err := collectLeaves(c, src, leaves); err != nil {
			return err
		}
	}
	return nil
}

// gatherPool recycles the per-query iterator gather slice, and valsPool
// the per-document child-belief scratch of every internal node visit —
// the two allocations the DAAT hot loop would otherwise make per query
// and per (document × operator) respectively. Each recursion frame
// borrows its own buffer, so nesting is safe.
var (
	gatherPool = sync.Pool{
		New: func() any {
			b := make([]*peekIter, 0, 16)
			return &b
		},
	}
	valsPool = sync.Pool{
		New: func() any {
			b := make([]float64, 0, 8)
			return &b
		},
	}
)

// evalDocNode computes the belief of one document under the tree.
func evalDocNode(n *Node, doc uint32, leaves map[*Node]*leafState, src StreamSource) float64 {
	if ls, ok := leaves[n]; ok {
		return leafBelief(ls, doc, src)
	}
	bp := valsPool.Get().(*[]float64)
	vals := (*bp)[:0]
	for _, c := range n.Children {
		vals = append(vals, evalDocNode(c, doc, leaves, src))
	}
	belief := DefaultBelief
	switch n.Op {
	case OpSum:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		belief = s / float64(len(vals))
	case OpWSum:
		var s, w float64
		for i, v := range vals {
			s += n.Weights[i] * v
			w += n.Weights[i]
		}
		belief = s / w
	case OpAnd:
		s := 1.0
		for _, v := range vals {
			s *= v
		}
		belief = s
	case OpOr:
		s := 1.0
		for _, v := range vals {
			s *= 1 - v
		}
		belief = 1 - s
	case OpNot:
		belief = 1 - vals[0]
	case OpMax:
		s := vals[0]
		for _, v := range vals[1:] {
			if v > s {
				s = v
			}
		}
		belief = s
	}
	*bp = vals[:0]
	valsPool.Put(bp)
	return belief
}

func leafBelief(ls *leafState, doc uint32, src StreamSource) float64 {
	if len(ls.iters) == 0 || ls.df == 0 {
		return DefaultBelief
	}
	switch ls.node.Op {
	case OpTerm:
		pi := ls.iters[0]
		if !pi.ok || pi.cur.Doc != doc {
			return DefaultBelief
		}
		return Belief(pi.cur.TF(), src.DocLen(doc), src.AvgDocLen(), ls.df, src.NumDocs())
	case OpSyn:
		tf := 0
		for _, pi := range ls.iters {
			if pi.ok && pi.cur.Doc == doc {
				tf += pi.cur.TF()
			}
		}
		if tf == 0 {
			return DefaultBelief
		}
		return Belief(tf, src.DocLen(doc), src.AvgDocLen(), ls.df, src.NumDocs())
	default: // proximity: every child must be at doc
		lists := make([][]uint32, len(ls.iters))
		for i, pi := range ls.iters {
			if !pi.ok || pi.cur.Doc != doc {
				return DefaultBelief
			}
			lists[i] = pi.cur.Positions
		}
		var m int
		if ls.node.Op == OpOrderedWindow {
			m = countOrderedMatches(lists, ls.node.Window)
		} else {
			m = countUnorderedMatches(lists, ls.node.Window)
		}
		if m == 0 {
			return DefaultBelief
		}
		return Belief(m, src.DocLen(doc), src.AvgDocLen(), ls.df, src.NumDocs())
	}
}

// resultHeap keeps the running top-K during DAAT evaluation. It is a
// min-heap in ranking order — its root is the worst-ranked result — so
// popping it empty from the back yields the ranking with no sort.
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return RankedBefore(h[j], h[i]) }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
