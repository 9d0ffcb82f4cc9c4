package inference

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/postings"
)

// AdvancingIterator is a PostingIterator that can skip forward: Advance
// returns the first posting with Doc >= target at or after the current
// position. Iterators over block-format (v2) records implement it by
// skipping whole blocks; plain iterators are emulated with a linear
// scan (see peekIter.advanceTo).
type AdvancingIterator interface {
	PostingIterator
	Advance(target uint32) (postings.Posting, bool)
}

// BoundedIterator exposes the largest within-document term frequency
// in the list, when the record format carries it (v2 descriptors).
// ok=false means unknown, and the score bound falls back to the
// tf→∞ asymptote.
type BoundedIterator interface {
	MaxTF() (uint32, bool)
}

// advanceTo moves the peek position to the first posting with
// Doc >= target, using the iterator's native skip if it has one.
func (p *peekIter) advanceTo(target uint32) {
	if !p.ok || p.cur.Doc >= target {
		return
	}
	if adv, ok := p.it.(AdvancingIterator); ok {
		p.cur, p.ok = adv.Advance(target)
		return
	}
	for p.ok && p.cur.Doc < target {
		p.advance()
	}
}

// slack is the absolute safety margin on every pruning comparison.
// Bounds are accumulated in a different floating-point order than the
// exact score, so they can disagree by a few ulps; any document whose
// bound comes within slack of the heap threshold is scored exactly
// instead of pruned. Exactness therefore never depends on float
// associativity — only the (generous) claim that the two orderings of
// at most a few dozen O(1) additions differ by less than 1e-9.
const slack = 1e-9

// msTerm is one query term's state during MaxScore evaluation.
type msTerm struct {
	idx   int // child index in the query node, for exact rescoring
	pi    *peekIter
	df    uint64
	wn    float64 // weight normalized by the total, w_i/W
	sigma float64 // max score increment above the 0.4 prior

	// one-document belief memo, shared between the bound refinement
	// and the exact rescore so both see the identical float64
	belief   float64
	beliefAt uint32
	beliefOK bool
}

// beliefAtDoc computes (once per document) the same belief value
// evalDocNode's leafBelief would: the full Belief when the term's
// stream sits on doc, the 0.4 prior otherwise.
func (t *msTerm) beliefAtDoc(doc uint32, src StreamSource) float64 {
	if t.beliefOK && t.beliefAt == doc {
		return t.belief
	}
	b := DefaultBelief
	if t.pi != nil && t.df > 0 && t.pi.ok && t.pi.cur.Doc == doc {
		b = Belief(t.pi.cur.TF(), src.DocLen(doc), src.AvgDocLen(), t.df, src.NumDocs())
	}
	t.belief, t.beliefAt, t.beliefOK = b, doc, true
	return b
}

// maxScoreEligible reports whether the query tree has the flat
// weighted-sum-of-terms shape MaxScore pruning supports with exact
// results: #sum or #wsum over bare terms, positive weights, and a
// bounded k. Everything else falls back to the exhaustive evaluator.
func maxScoreEligible(n *Node, topK int) bool {
	if topK <= 0 || len(n.Children) == 0 {
		return false
	}
	if n.Op != OpSum && n.Op != OpWSum {
		return false
	}
	var wsum float64
	for i, c := range n.Children {
		if c.Op != OpTerm {
			return false
		}
		if n.Op == OpWSum {
			if n.Weights[i] <= 0 {
				return false
			}
			wsum += n.Weights[i]
		}
	}
	return n.Op != OpWSum || wsum > 0
}

// exactCombine reproduces evalDocNode's root arithmetic exactly — same
// operations, same order — so a document scored here gets the
// bit-identical float64 the exhaustive DAAT evaluator would produce.
func exactCombine(n *Node, beliefs []float64) float64 {
	switch n.Op {
	case OpSum:
		s := 0.0
		for _, v := range beliefs {
			s += v
		}
		return s / float64(len(beliefs))
	case OpWSum:
		var s, w float64
		for i, v := range beliefs {
			s += n.Weights[i] * v
			w += n.Weights[i]
		}
		return s / w
	}
	return DefaultBelief
}

// EvaluateMaxScore evaluates the query document-at-a-time with
// MaxScore dynamic pruning (Turtle & Flood): each term carries a score
// upper bound derived from its df and, when the record format provides
// it, its maximum tf. Once the top-k heap is full, terms whose
// combined bounds cannot lift a document over the heap threshold
// become "non-essential": they stop driving candidate selection and
// are only Advance()d to documents the essential terms propose —
// skipping, for block-format lists, the decode (and chunk fault-in) of
// everything in between.
//
// The ranking is exactly the exhaustive evaluator's: candidates are
// only discarded when their score bound sits more than a safety margin
// below the threshold, and every surviving candidate is rescored with
// the identical arithmetic (see exactCombine). Queries outside the
// eligible shape delegate to EvaluateDAAT wholesale.
func EvaluateMaxScore(n *Node, src StreamSource, topK int) ([]Result, error) {
	return EvaluateMaxScoreFloor(n, src, topK, 0)
}

// EvaluateMaxScoreFloor is EvaluateMaxScore with an externally supplied
// score floor. A floor > 0 acts as an initial pruning threshold active
// even before the heap fills: documents whose score bound sits below it
// are discarded immediately. The scatter-gather coordinator seeds late
// shards with the running merged k-th score — exact-safe because that
// threshold only rises, so any document pruned here scores strictly
// below the final global k-th and cannot appear in the merged top-k.
// The heap may come back underfull; callers merging across shards
// expect that.
func EvaluateMaxScoreFloor(n *Node, src StreamSource, topK int, floor float64) ([]Result, error) {
	if !maxScoreEligible(n, topK) {
		return EvaluateDAAT(n, src, topK)
	}

	nd := src.NumDocs()
	var wTotal float64
	if n.Op == OpWSum {
		for _, w := range n.Weights {
			wTotal += w
		}
	} else {
		wTotal = float64(len(n.Children))
	}

	terms := make([]*msTerm, 0, len(n.Children))
	for i, c := range n.Children {
		t := &msTerm{idx: i}
		it, ok, err := src.Iterator(c.Term)
		if err != nil {
			return nil, err
		}
		if ok {
			t.pi = &peekIter{it: it}
			t.pi.advance()
			t.df = termDF(src, c.Term, it.DF())
		}
		t.wn = 1 / wTotal
		if n.Op == OpWSum {
			t.wn = n.Weights[i] / wTotal
		}
		if t.df > 0 && nd > 0 {
			idf := math.Log((float64(nd)+0.5)/float64(t.df)) / math.Log(float64(nd)+1)
			if idf < 0 {
				idf = 0
			}
			tfnUB := 1.0 // tf/(tf+0.5+…) < 1 for any tf
			if b, ok := it.(BoundedIterator); ok {
				if maxTF, known := b.MaxTF(); known {
					// tfn is increasing in tf and decreasing in docLen,
					// so maxTF/(maxTF+0.5) bounds it from above.
					tfnUB = float64(maxTF) / (float64(maxTF) + 0.5)
				}
			}
			t.sigma = (1 - DefaultBelief) * tfnUB * idf * t.wn
		}
		terms = append(terms, t)
	}

	// Pruning work happens in its own span so the bench can report the
	// pruned evaluation stage separately from exhaustive scoring.
	if rec := recorderOf(src); rec != nil {
		rec.BeginSpan(obs.StagePrune, "maxscore")
		defer rec.EndSpan()
	}

	// Ascending-bound order with prefix sums: order[:nonEss] are the
	// non-essential terms, and prefix[p] is the best score increment p
	// of them can contribute together.
	order := append([]*msTerm(nil), terms...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].sigma < order[j].sigma })
	prefix := make([]float64, len(order)+1)
	for i, t := range order {
		prefix[i+1] = prefix[i] + t.sigma
	}

	// threshold returns the active pruning threshold: the heap's k-th
	// score once full, never below the caller's floor. -Inf disables
	// pruning entirely (no floor, heap not yet full).
	h := &resultHeap{}
	heap.Init(h)
	threshold := func() float64 {
		theta := math.Inf(-1)
		if floor > 0 {
			theta = floor
		}
		if h.Len() >= topK && (*h)[0].Score > theta {
			theta = (*h)[0].Score
		}
		return theta
	}
	nonEss := 0
	updatePartition := func() {
		theta := threshold()
		if math.IsInf(theta, -1) {
			nonEss = 0
			return
		}
		p := 0
		for p < len(order) && DefaultBelief+prefix[p+1]+slack < theta {
			p++
		}
		if p == len(order) {
			// With a heap-derived threshold this is unreachable (the
			// threshold is an achieved score, so it cannot exceed the
			// sum of every term's bound). A caller floor can exceed it
			// — no shard document can make the global top-k — but a
			// full non-essential set would end candidate generation,
			// so keep one essential term; the bound check prunes every
			// candidate it proposes.
			p = len(order) - 1
		}
		nonEss = p
	}

	updatePartition() // a floor may demote terms before any result lands
	beliefs := make([]float64, len(terms))
	for {
		// Candidates come from essential terms only: a document seen by
		// none of them is bounded by DefaultBelief+prefix[nonEss], which
		// the partition already placed below the threshold.
		candidate := int64(-1)
		for _, t := range order[nonEss:] {
			if t.pi != nil && t.pi.ok && (candidate < 0 || int64(t.pi.cur.Doc) < candidate) {
				candidate = int64(t.pi.cur.Doc)
			}
		}
		if candidate < 0 {
			break
		}
		doc := uint32(candidate)

		theta := threshold()
		// Refine the score bound: actual increments from essential terms
		// sitting on doc, optimistic sigma for unresolved non-essential
		// terms, resolved one at a time (largest bound first) with early
		// abandon.
		bound := DefaultBelief + prefix[nonEss]
		for _, t := range order[nonEss:] {
			if t.pi != nil && t.pi.ok && t.pi.cur.Doc == doc {
				bound += (t.beliefAtDoc(doc, src) - DefaultBelief) * t.wn
			}
		}
		pruned := bound+slack < theta
		if !pruned {
			for j := nonEss - 1; j >= 0; j-- {
				t := order[j]
				bound -= t.sigma
				if t.pi != nil {
					t.pi.advanceTo(doc)
					if t.pi.ok && t.pi.cur.Doc == doc {
						bound += (t.beliefAtDoc(doc, src) - DefaultBelief) * t.wn
					}
				}
				if bound+slack < theta {
					pruned = true
					break
				}
			}
		}
		if !pruned {
			for _, t := range terms {
				beliefs[t.idx] = t.beliefAtDoc(doc, src)
			}
			score := exactCombine(n, beliefs)
			if h.Len() < topK {
				heap.Push(h, Result{Doc: doc, Score: score})
				updatePartition()
			} else if top := (*h)[0]; RankedBefore(Result{Doc: doc, Score: score}, top) {
				(*h)[0] = Result{Doc: doc, Score: score}
				heap.Fix(h, 0)
				updatePartition()
			}
		}
		for _, t := range terms {
			if t.pi != nil && t.pi.ok && t.pi.cur.Doc == doc {
				t.pi.advance()
			}
		}
	}
	for _, t := range terms {
		if t.pi != nil {
			if err := t.pi.it.Err(); err != nil {
				return nil, err
			}
		}
	}

	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, nil
}
