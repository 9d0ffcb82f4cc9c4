package inference

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/postings"
)

// DefaultBelief is the inference network's prior: the belief assigned to
// a document that provides no evidence for a concept.
const DefaultBelief = 0.4

// Source supplies term evidence for evaluation. Implementations wrap a
// storage backend (B-tree or Mneme) plus the collection statistics held
// by the hash dictionary and document table.
type Source interface {
	// Postings returns the full inverted list for a term. ok=false means
	// the term is not in the collection (zero evidence everywhere).
	Postings(term string) (ps []postings.Posting, ok bool, err error)
	// NumDocs is the number of documents in the collection.
	NumDocs() int
	// DocLen returns a document's length in indexed tokens.
	DocLen(doc uint32) int
	// AvgDocLen is the mean document length.
	AvgDocLen() float64
}

// DFSource is an optional Source/StreamSource extension supplying
// collection-global document frequencies. A document-partitioned shard
// holds only its slice of every inverted list, so the local list length
// underestimates df; a sharded engine implements DFSource to report the
// whole collection's df for a term, keeping beliefs — and therefore
// rankings after the scatter-gather merge — byte-identical to an
// unsharded build. ok=false falls back to the local statistic.
type DFSource interface {
	TermDF(term string) (df uint64, ok bool)
}

// termDF resolves a term's document frequency: the global statistic when
// the source carries one, else the local list length.
func termDF(src any, term string, local uint64) uint64 {
	if g, ok := src.(DFSource); ok {
		if df, ok := g.TermDF(term); ok {
			return df
		}
	}
	return local
}

// Result is one ranked document. The JSON tags are the wire encoding
// of the serving layer's response body.
type Result struct {
	Doc   uint32  `json:"doc"`
	Score float64 `json:"score"`
}

// Belief computes the INQUERY-style belief contributed by a term
// occurring tf times in a document of length docLen, for a term with
// document frequency df in a collection of n documents:
//
//	0.4 + 0.6 · tf′ · idf′
//	tf′  = tf / (tf + 0.5 + 1.5·docLen/avgLen)
//	idf′ = log((n + 0.5) / df) / log(n + 1)
func Belief(tf, docLen int, avgLen float64, df uint64, n int) float64 {
	if tf <= 0 || df == 0 || n == 0 {
		return DefaultBelief
	}
	if avgLen <= 0 {
		avgLen = 1
	}
	tfn := float64(tf) / (float64(tf) + 0.5 + 1.5*float64(docLen)/avgLen)
	idf := math.Log((float64(n)+0.5)/float64(df)) / math.Log(float64(n)+1)
	if idf < 0 {
		idf = 0
	}
	return DefaultBelief + (1-DefaultBelief)*tfn*idf
}

// recorderOf extracts the trace recorder a source carries (sources that
// implement obs.Traced, i.e. core.Searcher), or nil when tracing is off.
// The evaluators bracket their scoring work in StageScore spans through
// it; with no recorder attached the cost is one failed type assertion
// per evidence leaf.
func recorderOf(src any) obs.Recorder {
	if t, ok := src.(obs.Traced); ok {
		return t.ObsRecorder()
	}
	return nil
}

// evidence is a sparse belief assignment: explicit beliefs for some
// documents plus a default for every other document. The algebra over
// evidences is exact: combining respects the default for absent docs.
type evidence struct {
	scores map[uint32]float64
	def    float64
}

// EvaluateTAAT evaluates a query tree with term-at-a-time processing:
// each leaf's inverted list is read completely and merged into
// accumulators before the next is touched ("it reads the complete
// record for one term, and merges the evidence from that term with the
// evidence it is accumulating for each document. Then it processes the
// next term", paper §3.1). It returns the topK documents by belief.
func EvaluateTAAT(n *Node, src Source, topK int) ([]Result, error) {
	ev, err := evalNode(n, src)
	if err != nil {
		return nil, err
	}
	return rank(ev, topK), nil
}

// RankedBefore is the one ranking order every evaluator, the top-k
// heaps and the shard merge share: score descending, then document
// ascending, so ties break the same way everywhere.
func RankedBefore(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// SortRanking sorts rs into ranking order (RankedBefore).
func SortRanking(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return RankedBefore(rs[i], rs[j]) })
}

// rank orders the documents carrying explicit evidence.
func rank(ev evidence, topK int) []Result {
	out := make([]Result, 0, len(ev.scores))
	for doc, s := range ev.scores {
		out = append(out, Result{Doc: doc, Score: s})
	}
	SortRanking(out)
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

func evalNode(n *Node, src Source) (evidence, error) {
	switch n.Op {
	case OpTerm:
		return evalTerm(n.Term, src)
	case OpOrderedWindow, OpUnorderedWindow:
		return evalProximity(n, src)
	case OpSyn:
		return evalSyn(n, src)
	case OpFilReq, OpFilRej:
		return evalFilter(n, src)
	}
	kids := make([]evidence, len(n.Children))
	for i, c := range n.Children {
		ev, err := evalNode(c, src)
		if err != nil {
			return evidence{}, err
		}
		kids[i] = ev
	}
	return combine(n, kids)
}

func evalTerm(term string, src Source) (evidence, error) {
	rec := recorderOf(src)
	if rec != nil {
		rec.BeginSpan(obs.StageScore, term)
		defer rec.EndSpan()
	}
	ps, ok, err := src.Postings(term)
	if err != nil {
		return evidence{}, err
	}
	ev := evidence{scores: make(map[uint32]float64), def: DefaultBelief}
	if !ok || len(ps) == 0 {
		return ev, nil
	}
	if rec != nil {
		rec.Event(obs.EvPostings, term, int64(len(ps)))
	}
	df := termDF(src, term, uint64(len(ps)))
	n := src.NumDocs()
	avg := src.AvgDocLen()
	for _, p := range ps {
		ev.scores[p.Doc] = Belief(p.TF(), src.DocLen(p.Doc), avg, df, n)
	}
	return ev, nil
}

// evalSyn merges its children's postings into one synonym class and
// scores it as a single pseudo-term.
func evalSyn(n *Node, src Source) (evidence, error) {
	rec := recorderOf(src)
	if rec != nil {
		rec.BeginSpan(obs.StageScore, "#syn")
		defer rec.EndSpan()
	}
	tf := make(map[uint32]int)
	for _, c := range n.Children {
		if c.Op != OpTerm {
			// Non-term synonyms degrade to #or semantics.
			return evalOrLike(n, src)
		}
		ps, ok, err := src.Postings(c.Term)
		if err != nil {
			return evidence{}, err
		}
		if !ok {
			continue
		}
		if rec != nil {
			rec.Event(obs.EvPostings, c.Term, int64(len(ps)))
		}
		for _, p := range ps {
			tf[p.Doc] += p.TF()
		}
	}
	return pseudoTermEvidence(tf, src), nil
}

func evalOrLike(n *Node, src Source) (evidence, error) {
	kids := make([]evidence, len(n.Children))
	for i, c := range n.Children {
		ev, err := evalNode(c, src)
		if err != nil {
			return evidence{}, err
		}
		kids[i] = ev
	}
	return combine(&Node{Op: OpOr, Children: n.Children}, kids)
}

// evalProximity computes per-document window-match counts over the
// children's position lists, then scores them as a pseudo-term.
func evalProximity(n *Node, src Source) (evidence, error) {
	rec := recorderOf(src)
	if rec != nil {
		rec.BeginSpan(obs.StageScore, "#prox")
		defer rec.EndSpan()
	}
	// Gather each child's postings keyed by document.
	type posmap map[uint32][]uint32
	childPos := make([]posmap, len(n.Children))
	for i, c := range n.Children {
		ps, ok, err := src.Postings(c.Term)
		if err != nil {
			return evidence{}, err
		}
		pm := make(posmap)
		if ok {
			if rec != nil {
				rec.Event(obs.EvPostings, c.Term, int64(len(ps)))
			}
			for _, p := range ps {
				pm[p.Doc] = p.Positions
			}
		}
		childPos[i] = pm
	}
	// Documents containing every child.
	tf := make(map[uint32]int)
	for doc := range childPos[0] {
		all := true
		lists := make([][]uint32, len(childPos))
		for i, pm := range childPos {
			l, ok := pm[doc]
			if !ok {
				all = false
				break
			}
			lists[i] = l
		}
		if !all {
			continue
		}
		var m int
		if n.Op == OpOrderedWindow {
			m = countOrderedMatches(lists, n.Window)
		} else {
			m = countUnorderedMatches(lists, n.Window)
		}
		if m > 0 {
			tf[doc] = m
		}
	}
	return pseudoTermEvidence(tf, src), nil
}

// pseudoTermEvidence scores a synthesized tf assignment (synonym class
// or proximity matches) as a single term. Its df is the exact match
// count in the local collection; on a shard that is the shard-local
// count, so TAAT compound-leaf scores can differ slightly between
// sharded and unsharded runs — the same caveat EvaluateDAAT already
// documents for its header-estimated compound df.
func pseudoTermEvidence(tf map[uint32]int, src Source) evidence {
	ev := evidence{scores: make(map[uint32]float64, len(tf)), def: DefaultBelief}
	df := uint64(len(tf))
	if df == 0 {
		return ev
	}
	n := src.NumDocs()
	avg := src.AvgDocLen()
	for doc, f := range tf {
		ev.scores[doc] = Belief(f, src.DocLen(doc), avg, df, n)
	}
	return ev
}

// countOrderedMatches counts non-overlapping occurrences of the terms
// in order, each adjacent pair within `window` positions: anchored on
// each position of the first term, the earliest qualifying position of
// every following term is taken greedily.
func countOrderedMatches(lists [][]uint32, window int) int {
	if window < 1 {
		window = 1
	}
	count := 0
	lastEnd := int64(-1)
	for _, p0 := range lists[0] {
		if int64(p0) <= lastEnd {
			continue // overlaps the previous match
		}
		prev := p0
		ok := true
		for i := 1; i < len(lists); i++ {
			l := lists[i]
			j := sort.Search(len(l), func(j int) bool { return l[j] > prev })
			if j == len(l) || l[j]-prev > uint32(window) {
				ok = false
				break
			}
			prev = l[j]
		}
		if ok {
			count++
			lastEnd = int64(prev)
		}
	}
	return count
}

// countUnorderedMatches counts non-overlapping windows of size `window`
// containing at least one position of every term, via a minimal-span
// sweep.
func countUnorderedMatches(lists [][]uint32, window int) int {
	k := len(lists)
	idx := make([]int, k)
	count := 0
	for {
		lo, hi := uint32(math.MaxUint32), uint32(0)
		loList := -1
		for i := 0; i < k; i++ {
			if idx[i] >= len(lists[i]) {
				return count
			}
			p := lists[i][idx[i]]
			if p < lo {
				lo, loList = p, i
			}
			if p > hi {
				hi = p
			}
		}
		if hi-lo < uint32(window) {
			count++
			// Consume all current positions (non-overlapping matches).
			for i := 0; i < k; i++ {
				idx[i]++
			}
			continue
		}
		idx[loList]++
	}
}

// evalFilter implements #filreq/#filrej: the first child selects the
// candidate set (documents with explicit evidence scoring above its
// default), and the second child's beliefs rank only documents inside
// (#filreq) or outside (#filrej) that set.
func evalFilter(n *Node, src Source) (evidence, error) {
	filt, err := evalNode(n.Children[0], src)
	if err != nil {
		return evidence{}, err
	}
	expr, err := evalNode(n.Children[1], src)
	if err != nil {
		return evidence{}, err
	}
	matches := func(d uint32) bool {
		v, ok := filt.scores[d]
		return ok && v > filt.def
	}
	out := evidence{scores: make(map[uint32]float64), def: expr.def}
	if n.Op == OpFilReq {
		// Only documents matching the filter can be ranked at all.
		for d, v := range expr.scores {
			if matches(d) {
				out.scores[d] = v
			}
		}
		// Filter-only documents rank with the expression's default.
		for d := range filt.scores {
			if _, ok := out.scores[d]; !ok && matches(d) {
				out.scores[d] = expr.def
			}
		}
		out.def = 0 // unmatched documents are excluded outright
		return out, nil
	}
	for d, v := range expr.scores {
		if !matches(d) {
			out.scores[d] = v
		}
	}
	return out, nil
}

// combine applies a belief operator to child evidences, handling absent
// documents through each child's default belief.
func combine(n *Node, kids []evidence) (evidence, error) {
	docs := make(map[uint32]bool)
	for _, k := range kids {
		for d := range k.scores {
			docs[d] = true
		}
	}
	childVal := func(i int, d uint32) float64 {
		if v, ok := kids[i].scores[d]; ok {
			return v
		}
		return kids[i].def
	}
	var applyDoc func(d uint32) float64
	var def float64

	switch n.Op {
	case OpSum:
		applyDoc = func(d uint32) float64 {
			s := 0.0
			for i := range kids {
				s += childVal(i, d)
			}
			return s / float64(len(kids))
		}
		for i := range kids {
			def += kids[i].def
		}
		def /= float64(len(kids))
	case OpWSum:
		var wsum float64
		for _, w := range n.Weights {
			wsum += w
		}
		if wsum == 0 {
			return evidence{}, fmt.Errorf("inference: #wsum weights sum to zero")
		}
		applyDoc = func(d uint32) float64 {
			s := 0.0
			for i := range kids {
				s += n.Weights[i] * childVal(i, d)
			}
			return s / wsum
		}
		for i := range kids {
			def += n.Weights[i] * kids[i].def
		}
		def /= wsum
	case OpAnd:
		applyDoc = func(d uint32) float64 {
			s := 1.0
			for i := range kids {
				s *= childVal(i, d)
			}
			return s
		}
		def = 1.0
		for i := range kids {
			def *= kids[i].def
		}
	case OpOr:
		applyDoc = func(d uint32) float64 {
			s := 1.0
			for i := range kids {
				s *= 1 - childVal(i, d)
			}
			return 1 - s
		}
		def = 1.0
		for i := range kids {
			def *= 1 - kids[i].def
		}
		def = 1 - def
	case OpNot:
		applyDoc = func(d uint32) float64 { return 1 - childVal(0, d) }
		def = 1 - kids[0].def
	case OpMax:
		applyDoc = func(d uint32) float64 {
			s := childVal(0, d)
			for i := 1; i < len(kids); i++ {
				if v := childVal(i, d); v > s {
					s = v
				}
			}
			return s
		}
		def = kids[0].def
		for i := 1; i < len(kids); i++ {
			if kids[i].def > def {
				def = kids[i].def
			}
		}
	default:
		return evidence{}, fmt.Errorf("inference: cannot combine %v", n.Op)
	}

	out := evidence{scores: make(map[uint32]float64, len(docs)), def: def}
	for d := range docs {
		out.scores[d] = applyDoc(d)
	}
	return out, nil
}
