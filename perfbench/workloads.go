package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// osCacheBytes sizes each simulated OS block cache as inqueryd does.
const osCacheBytes = 8 << 20

// topK is every workload's ranking depth.
const topK = 10

// queryRenditions is how many times the cycled workloads generate their
// paper query sets (50 queries each) from the seed.
const queryRenditions = 4

// setupTimes splits one set-up into its three steps.
type setupTimes struct {
	build, open, warm time.Duration
}

func (s setupTimes) total() time.Duration { return s.build + s.open + s.warm }

// shape is what the run reads from every workload: its generated
// inputs, its traffic shape and the stores it built.
type shape struct {
	docs    []index.Doc // documents the index is built from
	text    int64       // their text bytes
	reqs    *queryPool
	clients int // closed-loop query clients of timed runs
	// tracedN is the fixed request count of the traced phase (0: the
	// phase lasts as long as its ingest).
	tracedN int
	rate    float64  // open-loop ingest docs/s (0: read-only)
	ingest  []string // ingest doc texts, each ending in a unique term

	fss      []*vfs.FS // stores of the served index
	idxBytes int64     // their bytes after the build
	written  int64     // bytes the build wrote
}

func (s *shape) common() *shape { return s }

// build indexes s.docs into fresh stores — one per shard, n = 1 for an
// unsharded collection — and records their sizes.
func (s *shape) build(name string, n int) (time.Duration, error) {
	s.fss = make([]*vfs.FS, n)
	for i := range s.fss {
		s.fss[i] = newFS()
	}
	opt := core.BuildOptions{Analyzer: analyzer(), Backends: []core.BackendKind{core.BackendMneme}}
	src := &core.SliceDocs{Docs: s.docs}
	t0 := time.Now()
	var err error
	if n == 1 {
		_, err = core.Build(s.fss[0], name, src, opt)
	} else {
		_, err = shard.Build(s.fss, name, n, src, opt)
	}
	d := time.Since(t0)
	s.idxBytes, s.written = 0, 0
	for _, fs := range s.fss {
		s.idxBytes += fs.TotalSize()
		s.written += fs.Stats().BytesWritten
	}
	return d, err
}

// workload is one benchmark traffic mix over one index.
type workload interface {
	common() *shape
	// setup builds the index from the generated inputs, opens it and
	// warms it, first closing the index of any earlier setup.
	setup() (setupTimes, error)
	// served is the index as handed to serve.NewIndexes; timed runs use
	// it raw.
	served() serve.Index
	// traced wraps the served index for the traced run.
	traced() serve.Index
	// sequence returns client c's query-index generator; every call
	// restarts the same seeded sequence.
	sequence(c int) func() int
	// check verifies the program's outputs after the traffic and
	// returns one message per failure.
	check(serveNow queryServer, served []queryOut, ingested []ingestOut) []string
	close()
}

// queryServer serves one pool query through the handler (used by
// checks that need a ranking the run did not produce).
type queryServer func(idx int) queryOut

// analyzer is the synthetic collections' analyzer: their vocabulary is
// generated pre-normalized, so no stemming or stopping (as inqueryd
// and the experiments use).
func analyzer() *textproc.Analyzer {
	return textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
}

func newFS() *vfs.FS { return vfs.New(vfs.Options{OSCacheBytes: osCacheBytes}) }

// mix derives a generator seed from a collection's fixed seed and the
// workload seed (splitmix64 finalizer).
func mix(base, seed int64) int64 {
	z := uint64(base)*0x9E3779B97F4A7C15 + uint64(seed)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// paper returns the named paper collection at scale 1.0 with its
// document generator re-seeded by the workload seed.
func paper(name string, seed int64) collection.PaperCollection {
	col, ok := collection.ByName(name, 1.0)
	if !ok {
		panic("unknown collection " + name)
	}
	col.Seed = mix(col.Seed, seed)
	return col
}

// genDocs drains a spec's document stream.
func genDocs(spec collection.Spec) ([]index.Doc, int64) {
	st := spec.Stream()
	var docs []index.Doc
	for {
		d, ok, _ := st.Next() // the generator never fails
		if !ok {
			return docs, st.TextBytes()
		}
		docs = append(docs, d)
	}
}

// genRequests generates the query sets renditions times, each
// rendition re-seeded from the workload seed, and turns them into
// requests. Several renditions widen the pool so that a run's median
// does not hang on a few queries.
func genRequests(spec collection.Spec, sets []collection.QuerySpec, seed int64, renditions int, tmpl core.Request) []core.Request {
	var out []core.Request
	for r := 0; r < renditions; r++ {
		for _, qs := range sets {
			qs.Seed = mix(qs.Seed+int64(r)*7919, seed)
			for _, q := range spec.GenQueries(qs) {
				req := tmpl
				req.Query = q.Text
				out = append(out, req)
			}
		}
	}
	return out
}

// planFor applies the paper's Table 2 heuristics to the stored
// dictionary, as inqueryd does: large = 3x the largest list, medium =
// 9% of large (at least 3 segments), small = 3 segments. It probes a
// clone, because closing an engine appends to its store.
func planFor(fs *vfs.FS, name string) (core.BufferPlan, error) {
	eng, err := core.Open(fs.Clone(vfs.Options{}), name, core.BackendMneme)
	if err != nil {
		return core.BufferPlan{}, fmt.Errorf("probe %s: %w", name, err)
	}
	defer eng.Close()
	var max int64
	eng.Dictionary().Range(func(e *lexicon.Entry) bool {
		if int64(e.ListBytes) > max {
			max = int64(e.ListBytes)
		}
		return true
	})
	medium := 3 * max * 9 / 100
	if medium < 3*8192 {
		medium = 3 * 8192
	}
	return core.BufferPlan{SmallBytes: 3 * 4096, MediumBytes: medium, LargeBytes: 3 * max}, nil
}

// warm runs every request once, in order, straight into the index.
func warm(ix serve.Index, reqs []core.Request, order []int) error {
	for _, i := range order {
		if _, err := ix.Run(context.Background(), reqs[i]); err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return nil
}

// sameRanking compares two rankings: equal document ids in order and
// scores within 1e-9.
func sameRanking(got, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			return fmt.Errorf("rank %d: doc %d score %.12g, want doc %d score %.12g",
				i+1, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
		}
	}
	return nil
}

// firstServed maps each pool index to the first complete ranking the
// run served for it.
func firstServed(served []queryOut) map[int][]core.Result {
	m := make(map[int][]core.Result)
	for _, q := range served {
		if _, seen := m[q.idx]; !seen && q.ok() {
			m[q.idx] = q.results
		}
	}
	return m
}

// ---------------------------------------------------------------- legal-taat

// legalTAAT is the paper's protocol: Legal, query sets 1+2 cycled in
// seeded order, TAAT top-10, no caches, no pruning, one client.
type legalTAAT struct {
	shape
	order []int
	eng   *core.Engine
}

func newLegalTAAT(seed int64) *legalTAAT {
	col := paper("Legal", seed)
	docs, text := genDocs(col.Spec)
	reqs := genRequests(col.Spec, col.QuerySets, seed, queryRenditions, core.Request{TopK: topK, Mode: core.ModeTAAT})
	return &legalTAAT{
		shape: shape{docs: docs, text: text, reqs: newQueryPool(reqs), clients: 1, tracedN: len(reqs)},
		order: rand.New(rand.NewSource(mix(seed, 1))).Perm(len(reqs)),
	}
}

func (w *legalTAAT) setup() (setupTimes, error) {
	w.close()
	var t setupTimes
	var err error
	if t.build, err = w.build("Legal", 1); err != nil {
		return t, err
	}
	t0 := time.Now()
	plan, err := planFor(w.fss[0], "Legal")
	if err != nil {
		return t, err
	}
	if w.eng, err = core.Open(w.fss[0], "Legal", core.BackendMneme, core.WithAnalyzer(analyzer()), core.WithPlan(plan)); err != nil {
		return t, err
	}
	t.open = time.Since(t0)
	t0 = time.Now()
	err = warm(w.eng, w.reqs.reqs, w.order)
	t.warm = time.Since(t0)
	return t, err
}

func (w *legalTAAT) served() serve.Index     { return w.eng }
func (w *legalTAAT) traced() serve.Index     { return &timedIndex{Index: w.eng, eng: w.eng} }
func (w *legalTAAT) sequence(int) func() int { return cycle(w.order) }

// check compares every served ranking with Engine.Run in DAAT mode:
// the repo's contract is identical rankings across evaluation modes.
func (w *legalTAAT) check(_ queryServer, served []queryOut, _ []ingestOut) []string {
	var fails []string
	for idx, got := range firstServed(served) {
		req := w.reqs.reqs[idx]
		req.Mode = core.ModeDAAT
		want, err := w.eng.Run(context.Background(), req)
		if err != nil {
			fails = append(fails, fmt.Sprintf("DAAT oracle query %d: %v", idx, err))
			continue
		}
		if err := sameRanking(got, want.Results); err != nil {
			fails = append(fails, fmt.Sprintf("query %d TAAT vs DAAT: %v", idx, err))
		}
	}
	return fails
}

func (w *legalTAAT) close() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}

// ------------------------------------------------------ tipster-sharded-zipf

const (
	tipsterShards  = 2
	tipsterPool    = 1000
	tipsterZipfS   = 1.2
	tipsterEpoch   = 100 // draws per client before the popularity order moves
	tipsterWarm    = 500 // Zipf draws replayed by the warm-up
	tipsterTraced  = 400 // requests in the traced phase
	tipsterChecked = 50  // pool queries checked against the oracle
	resultEntries  = 256
	blockCacheMB   = 8
)

// tipsterSharded is TIPSTER split into two document-partitioned shards
// behind the scatter-gather coordinator, DAAT + MaxScore with the
// result and block caches on, queries drawn Zipf from a pool.
type tipsterSharded struct {
	shape
	seed    int64
	spec    collection.Spec
	mu      sync.Mutex
	popular [][]int // per epoch: popularity rank -> pool index
	engines []*core.Engine
	ix      *shard.Index
}

func newTipsterSharded(seed int64) *tipsterSharded {
	col := paper("TIPSTER", seed)
	docs, text := genDocs(col.Spec)
	qs := collection.QuerySpec{Name: "pool", Queries: tipsterPool, MeanTerms: 35,
		Style: collection.StyleWords, Repeat: 0.62, Seed: 33}
	reqs := genRequests(col.Spec, []collection.QuerySpec{qs}, seed, 1,
		core.Request{TopK: topK, Mode: core.ModeDAAT, Prune: true})
	return &tipsterSharded{
		shape: shape{docs: docs, text: text, reqs: newQueryPool(reqs), clients: 2, tracedN: tipsterTraced},
		seed:  seed,
		spec:  col.Spec,
	}
}

// zipf returns a generator of pool indexes drawn Zipf(s=1.2) over a
// seeded popularity order that moves on every tipsterEpoch draws, so a
// run samples many popular heads rather than one.
func (w *tipsterSharded) zipf(stream int64) func() int {
	rng := rand.New(rand.NewSource(mix(w.seed, stream)))
	z := rand.NewZipf(rng, tipsterZipfS, 1, uint64(len(w.reqs.reqs)-1))
	n := 0
	return func() int {
		e := n / tipsterEpoch
		n++
		return w.popularity(e)[z.Uint64()]
	}
}

// popularity returns epoch e's popularity order (rank -> pool index);
// every client sees the same order in the same epoch.
func (w *tipsterSharded) popularity(e int) []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.popular) <= e {
		w.popular = append(w.popular, rand.New(rand.NewSource(mix(w.seed, 1000+int64(len(w.popular))))).Perm(len(w.reqs.reqs)))
	}
	return w.popular[e]
}

func (w *tipsterSharded) setup() (setupTimes, error) {
	w.close()
	var t setupTimes
	var err error
	if t.build, err = w.build("TIPSTER", tipsterShards); err != nil {
		return t, err
	}
	t0 := time.Now()
	plan, err := planFor(w.fss[0], shard.ShardName("TIPSTER", 0))
	if err != nil {
		return t, err
	}
	w.engines, err = shard.OpenEngines(w.fss, "TIPSTER", tipsterShards, core.BackendMneme,
		core.WithAnalyzer(analyzer()), core.WithPlan(plan),
		core.WithResultCache(resultEntries), core.WithBlockCache(blockCacheMB))
	if err != nil {
		return t, err
	}
	if w.ix, err = shard.NewIndex("TIPSTER", w.engines, shard.Config{RetryAttempts: 2}); err != nil {
		return t, err
	}
	t.open = time.Since(t0)
	t0 = time.Now()
	next := w.zipf(99)
	order := make([]int, tipsterWarm)
	for i := range order {
		order[i] = next()
	}
	err = warm(w.ix, w.reqs.reqs, order)
	t.warm = time.Since(t0)
	return t, err
}

func (w *tipsterSharded) served() serve.Index       { return w.ix }
func (w *tipsterSharded) traced() serve.Index       { return &timedIndex{Index: w.ix, shards: w.ix} }
func (w *tipsterSharded) sequence(c int) func() int { return w.zipf(100 + int64(c)) }

// check compares the served top-10 of a seeded sample of pool queries
// with an unsharded, uncached engine built over the same documents.
// Rankings the run served are checked as served (cache hits included);
// sample queries the run never drew are served now.
func (w *tipsterSharded) check(serveNow queryServer, served []queryOut, _ []ingestOut) []string {
	docs, _ := genDocs(w.spec) // set-up released the originals
	one := shape{docs: docs}
	if _, err := one.build("TIPSTER", 1); err != nil {
		return []string{fmt.Sprintf("oracle build: %v", err)}
	}
	oracle, err := core.Open(one.fss[0], "TIPSTER", core.BackendMneme, core.WithAnalyzer(analyzer()))
	if err != nil {
		return []string{fmt.Sprintf("oracle open: %v", err)}
	}
	defer oracle.Close()
	first := firstServed(served)
	var fails []string
	sample := rand.New(rand.NewSource(mix(w.seed, 3))).Perm(len(w.reqs.reqs))[:tipsterChecked]
	for _, idx := range sample {
		got, ok := first[idx]
		if !ok {
			q := serveNow(idx)
			if !q.ok() {
				fails = append(fails, fmt.Sprintf("check query %d: status %d outcome %q", idx, q.status, q.outcome))
				continue
			}
			got = q.results
		}
		want, err := oracle.Run(context.Background(), w.reqs.reqs[idx])
		if err != nil {
			fails = append(fails, fmt.Sprintf("oracle query %d: %v", idx, err))
			continue
		}
		if err := sameRanking(got, want.Results); err != nil {
			fails = append(fails, fmt.Sprintf("query %d sharded+cached vs unsharded: %v", idx, err))
		}
	}
	return fails
}

func (w *tipsterSharded) close() {
	if w.ix != nil {
		w.ix.Close()
		w.ix = nil
	}
	for _, e := range w.engines {
		e.Close()
	}
	w.engines = nil
}

// ----------------------------------------------------------- cacm-nrt-ingest

const (
	nrtRate       = 400.0 // ingested docs per second, open loop
	nrtFlushDocs  = 1000
	nrtCompactSeg = 4
)

// cacmNRT is CACM batch-built and wrapped by the near-real-time write
// path. Documents are ingested one per request, open loop, while one
// closed-loop client runs query set 3 (phrases) in DAAT, caches off.
type cacmNRT struct {
	shape
	seed     int64
	baseDocs int
	order    []int
	eng      *core.NRTEngine
	wrap     *timedIngestIndex
}

func newCACMNRT(seed int64, ingestDocs int) *cacmNRT {
	col := paper("CACM", seed)
	base, text := genDocs(col.Spec)
	more := col.Spec
	more.Seed = mix(col.Seed, 4)
	more.Docs = ingestDocs
	extra, _ := genDocs(more)
	texts := make([]string, len(extra))
	for i, d := range extra {
		texts[i] = d.Text + " " + uniqueTerm(seed, i)
	}
	reqs := genRequests(col.Spec, col.QuerySets[2:3], seed, queryRenditions, core.Request{TopK: topK, Mode: core.ModeDAAT})
	return &cacmNRT{
		shape: shape{docs: base, text: text, reqs: newQueryPool(reqs), clients: 1,
			rate: nrtRate, ingest: texts},
		seed:     seed,
		baseDocs: len(base),
		order:    rand.New(rand.NewSource(mix(seed, 5))).Perm(len(reqs)),
	}
}

// uniqueTerm is ingest doc i's own term: no generated document or
// other ingest doc contains it, so it retrieves exactly that doc.
func uniqueTerm(seed int64, i int) string { return fmt.Sprintf("uq%dd%d", uint64(seed), i) }

func (w *cacmNRT) setup() (setupTimes, error) {
	w.close()
	var t setupTimes
	var err error
	if t.build, err = w.build("CACM", 1); err != nil {
		return t, err
	}
	t0 := time.Now()
	plan, err := planFor(w.fss[0], "CACM")
	if err != nil {
		return t, err
	}
	w.eng, err = core.OpenNRT(w.fss[0], "CACM", core.BackendMneme,
		core.NRTConfig{FlushDocs: nrtFlushDocs, CompactSegments: nrtCompactSeg},
		core.WithAnalyzer(analyzer()), core.WithPlan(plan))
	if err != nil {
		return t, err
	}
	w.wrap = &timedIngestIndex{timedIndex: &timedIndex{Index: w.eng}, nrt: w.eng}
	t.open = time.Since(t0)
	t0 = time.Now()
	err = warm(w.eng, w.reqs.reqs, w.order)
	t.warm = time.Since(t0)
	return t, err
}

func (w *cacmNRT) served() serve.Index     { return w.eng }
func (w *cacmNRT) traced() serve.Index     { return w.wrap }
func (w *cacmNRT) sequence(int) func() int { return cycle(w.order) }

// check requires NumDocs = base + acked, and every acked doc's unique
// term to retrieve that doc first.
func (w *cacmNRT) check(_ queryServer, _ []queryOut, ingested []ingestOut) []string {
	var fails []string
	acked := 0
	for _, in := range ingested {
		if in.status != 200 {
			continue
		}
		acked++
		resp, err := w.eng.Run(context.Background(), core.Request{Query: uniqueTerm(w.seed, in.doc), TopK: 1, Mode: core.ModeDAAT})
		if err != nil || len(resp.Results) != 1 || resp.Results[0].Doc != in.firstID {
			fails = append(fails, fmt.Sprintf("ingest doc %d (id %d) not retrieved by its unique term: %v %v",
				in.doc, in.firstID, resp.Results, err))
		}
	}
	if got, want := w.eng.NumDocs(), w.baseDocs+acked; got != want {
		fails = append(fails, fmt.Sprintf("NumDocs %d, want base %d + acked %d", got, w.baseDocs, acked))
	}
	return fails
}

func (w *cacmNRT) close() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}
