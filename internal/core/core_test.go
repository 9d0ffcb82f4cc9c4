package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

func newFS() *vfs.FS {
	return vfs.New(vfs.Options{BlockSize: 8192, OSCacheBytes: 1 << 22})
}

func plainAnalyzer() *textproc.Analyzer {
	return textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
}

var tinyDocs = []index.Doc{
	{ID: 0, Text: "information retrieval with inverted files"},
	{ID: 1, Text: "persistent object store design"},
	{ID: 2, Text: "information retrieval using a persistent object store"},
	{ID: 3, Text: "btree indexes and keyed files"},
	{ID: 4, Text: "buffer management for object stores"},
}

func buildTiny(t *testing.T, fs *vfs.FS, name string) *BuildStats {
	t.Helper()
	st, err := Build(fs, name, &SliceDocs{Docs: tinyDocs}, BuildOptions{Analyzer: plainAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func openBoth(t *testing.T, fs *vfs.FS, name string, plan BufferPlan) (bt, mn *Engine) {
	t.Helper()
	var err error
	bt, err = Open(fs, name, BackendBTree, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	mn, err = Open(fs, name, BackendMneme, WithAnalyzer(plainAnalyzer()), WithPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	return bt, mn
}

func TestBuildProducesBothBackends(t *testing.T) {
	fs := newFS()
	st := buildTiny(t, fs, "tiny")
	if st.Docs != 5 || st.Records == 0 || st.Terms == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BTreeBytes == 0 || st.MnemeBytes == 0 {
		t.Fatalf("backend sizes = %+v", st)
	}
	if int64(st.Terms) != st.Records {
		t.Fatalf("terms %d != records %d", st.Terms, st.Records)
	}
}

// TestPlanFromLexiconReadOnly: deriving the Table 2 buffer plan reads
// the stored lexicon without writing to the store, and yields the plan
// the probe-engine formula produced (3x the largest list; 9% of that
// for medium with a 3-segment floor; 3 small segments).
func TestPlanFromLexiconReadOnly(t *testing.T) {
	fs := newFS()
	concurrencyCorpus(t, fs, "plan")
	before := fs.Stats().BytesWritten
	got := PlanFromLexicon(fs, "plan")
	if w := fs.Stats().BytesWritten - before; w != 0 {
		t.Fatalf("deriving the plan wrote %d bytes", w)
	}

	oldFormula := func(m int64) BufferPlan {
		medium := 3 * m * 9 / 100
		if medium < 3*8192 {
			medium = 3 * 8192
		}
		return BufferPlan{SmallBytes: 3 * 4096, MediumBytes: medium, LargeBytes: 3 * m}
	}
	eng, err := Open(fs, "plan", BackendMneme)
	if err != nil {
		t.Fatal(err)
	}
	var maxList int64
	eng.Dictionary().Range(func(e *lexicon.Entry) bool {
		maxList = max(maxList, int64(e.ListBytes))
		return true
	})
	eng.Close()
	if maxList == 0 {
		t.Fatal("empty dictionary")
	}
	if want := oldFormula(maxList); got != want {
		t.Fatalf("plan = %+v, want %+v", got, want)
	}
	for _, m := range []int64{0, 1000, 91022, 91023, 100_000, 5 << 20} {
		if got, want := PlanForMaxList(m), oldFormula(m); got != want {
			t.Fatalf("PlanForMaxList(%d) = %+v, want %+v", m, got, want)
		}
	}
}

func TestSearchSameResultsAcrossBackends(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	bt, mn := openBoth(t, fs, "tiny", BufferPlan{SmallBytes: 1 << 14, MediumBytes: 1 << 16, LargeBytes: 1 << 18})
	defer bt.Close()
	defer mn.Close()

	queries := []string{
		"information retrieval",
		"#and(persistent store)",
		"#or(btree object)",
		"#phrase(persistent object)",
		"#wsum(3 retrieval 1 store)",
		"object",
	}
	for _, q := range queries {
		r1, err := resultsOf(bt.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatalf("btree %q: %v", q, err)
		}
		r2, err := resultsOf(mn.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatalf("mneme %q: %v", q, err)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%q: btree %d docs, mneme %d docs", q, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Doc != r2[i].Doc || math.Abs(r1[i].Score-r2[i].Score) > 1e-12 {
				t.Fatalf("%q rank %d: btree %v mneme %v", q, i, r1[i], r2[i])
			}
		}
	}
}

func TestSearchRelevanceSanity(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	_, mn := openBoth(t, fs, "tiny", BufferPlan{})
	defer mn.Close()
	res, err := resultsOf(mn.Run(nil, Request{Query: "information retrieval persistent object"}))
	if err != nil {
		t.Fatal(err)
	}
	// Doc 2 contains all four query terms.
	if len(res) == 0 || res[0].Doc != 2 {
		t.Fatalf("results = %v", res)
	}
}

func TestSearchTAATvsDAAT(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	_, mn := openBoth(t, fs, "tiny", BufferPlan{MediumBytes: 1 << 16})
	defer mn.Close()
	for _, q := range []string{"information retrieval", "#and(object store)", "#or(files btree)"} {
		taat, err := resultsOf(mn.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		daat, err := resultsOf(mn.Run(nil, Request{Query: q, Mode: ModeDAAT}))
		if err != nil {
			t.Fatal(err)
		}
		if len(taat) != len(daat) {
			t.Fatalf("%q: %d vs %d docs", q, len(taat), len(daat))
		}
		for i := range taat {
			if taat[i].Doc != daat[i].Doc || math.Abs(taat[i].Score-daat[i].Score) > 1e-12 {
				t.Fatalf("%q rank %d: %v vs %v", q, i, taat[i], daat[i])
			}
		}
	}
}

func TestStopwordsAndStemmingInQueries(t *testing.T) {
	fs := newFS()
	docs := []index.Doc{
		{ID: 0, Text: "the cats are running quickly"},
		{ID: 1, Text: "dogs walk slowly"},
	}
	if _, err := Build(fs, "stem", &SliceDocs{Docs: docs}, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, "stem", BackendMneme)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// "cat" matches the indexed stem of "cats"; "the" is stopped.
	res, err := resultsOf(e.Run(nil, Request{Query: "the cat"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Doc != 0 {
		t.Fatalf("results = %v", res)
	}
	// A fully stopped query returns no results, no error.
	res, err = resultsOf(e.Run(nil, Request{Query: "the a of"}))
	if err != nil || res != nil {
		t.Fatalf("stopped query = %v, %v", res, err)
	}
	// Parse errors surface.
	if _, err := e.Run(nil, Request{Query: "#bogus(x)"}); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestCountersAndAccessLog(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	e, err := Open(fs, "tiny", BackendMneme,
		WithAnalyzer(plainAnalyzer()), WithAccessLog(), WithTermUse())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(nil, Request{Query: "information retrieval"})
	c := e.Counters()
	if c.Queries != 1 || c.Lookups != 2 || c.Postings == 0 || c.BytesFetched == 0 {
		t.Fatalf("counters = %+v", c)
	}
	if len(e.AccessLog()) != 2 {
		t.Fatalf("AccessLog = %v", e.AccessLog())
	}
	if e.TermUse()["information"] != 1 || e.TermUse()["retrieval"] != 1 {
		t.Fatalf("TermUse = %v", e.TermUse())
	}
	// Unknown terms are not lookups.
	e.ResetCounters()
	e.Run(nil, Request{Query: "zebra"})
	if c := e.Counters(); c.Lookups != 0 {
		t.Fatalf("unknown term counted: %+v", c)
	}
}

func TestPoolPartitioningBySize(t *testing.T) {
	if PoolForSize(0) != PoolNameSmall || PoolForSize(12) != PoolNameSmall {
		t.Fatal("small threshold wrong")
	}
	if PoolForSize(13) != PoolNameMedium || PoolForSize(4096) != PoolNameMedium {
		t.Fatal("medium threshold wrong")
	}
	if PoolForSize(4097) != PoolNameLarge {
		t.Fatal("large threshold wrong")
	}
}

// TestMnemePoolPlacement builds a collection with rare, medium, and very
// frequent terms and confirms records land in the right pools.
func TestMnemePoolPlacement(t *testing.T) {
	fs := newFS()
	var docs []index.Doc
	for d := 0; d < 2000; d++ {
		text := "common " // appears in every doc: large list
		if d%3 == 0 {
			text += "middling " // ~667 docs: medium list
		}
		if d == 42 {
			text += "unicorn " // one doc: small list
		}
		text += fmt.Sprintf("filler%d", d)
		docs = append(docs, index.Doc{ID: uint32(d), Text: text})
	}
	if _, err := Build(fs, "pools", &SliceDocs{Docs: docs}, BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, "pools", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mb := e.Backend().(*mnemeBackend)
	check := func(term, wantPool string) {
		entry, ok := e.Dictionary().Lookup(term)
		if !ok {
			t.Fatalf("term %q missing", term)
		}
		pool, err := mb.Mneme().PoolOf(mnemeID(entry.Ref))
		if err != nil {
			t.Fatal(err)
		}
		if pool != wantPool {
			t.Fatalf("term %q (list %d bytes) in pool %q, want %q",
				term, entry.ListBytes, pool, wantPool)
		}
	}
	check("unicorn", PoolNameSmall)
	check("middling", PoolNameMedium)
	check("common", PoolNameLarge)
}

func TestBTreeRejectsUpdates(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	bt, _ := Open(fs, "tiny", BackendBTree, WithAnalyzer(plainAnalyzer()))
	defer bt.Close()
	if _, err := bt.AddDocument("new doc"); !errors.Is(err, ErrNoUpdate) {
		t.Fatalf("AddDocument err = %v", err)
	}
	if err := bt.DeleteDocument(0, tinyDocs[0].Text); !errors.Is(err, ErrNoUpdate) {
		t.Fatalf("DeleteDocument err = %v", err)
	}
}

func TestAddDocumentIncremental(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	e, err := Open(fs, "tiny", BackendMneme,
		WithAnalyzer(plainAnalyzer()),
		WithPlan(BufferPlan{MediumBytes: 1 << 16, LargeBytes: 1 << 18}))
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.AddDocument("novel retrieval techniques with inverted files")
	if err != nil {
		t.Fatal(err)
	}
	if id != 5 {
		t.Fatalf("new doc id = %d", id)
	}
	// The new doc is searchable, via old terms and new ones.
	res, err := resultsOf(e.Run(nil, Request{Query: "novel"}))
	if err != nil || len(res) != 1 || res[0].Doc != 5 {
		t.Fatalf("search new term = %v, %v", res, err)
	}
	res, _ = resultsOf(e.Run(nil, Request{Query: "retrieval"}))
	found := false
	for _, r := range res {
		if r.Doc == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("updated list misses new doc: %v", res)
	}
	// Stats updated.
	entry, _ := e.Dictionary().Lookup("retrieval")
	if entry.DF != 3 {
		t.Fatalf("retrieval DF = %d, want 3", entry.DF)
	}
	// Persist and reopen.
	if err := e.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2, err := Open(fs, "tiny", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	res, err = resultsOf(e2.Run(nil, Request{Query: "novel"}))
	if err != nil || len(res) != 1 || res[0].Doc != 5 {
		t.Fatalf("after reopen = %v, %v", res, err)
	}
}

func TestAddDocumentCrossesPoolBoundaries(t *testing.T) {
	fs := newFS()
	// "pivot" starts with one tiny posting (small pool); repeated adds
	// grow its list through medium, checking ref stability handling.
	docs := []index.Doc{{ID: 0, Text: "pivot start"}}
	if _, err := Build(fs, "grow", &SliceDocs{Docs: docs}, BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		t.Fatal(err)
	}
	e, err := Open(fs, "grow", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	entry, _ := e.Dictionary().Lookup("pivot")
	mb := e.Backend().(*mnemeBackend)
	pool0, _ := mb.Mneme().PoolOf(mnemeID(entry.Ref))
	if pool0 != PoolNameSmall {
		t.Fatalf("initial pool = %q", pool0)
	}
	for i := 0; i < 40; i++ {
		// Several positions per doc grow the list quickly.
		if _, err := e.AddDocument(strings.Repeat("pivot ", 5)); err != nil {
			t.Fatal(err)
		}
	}
	entry, _ = e.Dictionary().Lookup("pivot")
	pool1, err := mb.Mneme().PoolOf(mnemeID(entry.Ref))
	if err != nil {
		t.Fatal(err)
	}
	if pool1 != PoolNameMedium {
		t.Fatalf("grown pool = %q (list %d bytes)", pool1, entry.ListBytes)
	}
	res, _ := resultsOf(e.Run(nil, Request{Query: "pivot"}))
	if len(res) != 41 {
		t.Fatalf("pivot matches %d docs, want 41", len(res))
	}
}

func TestDeleteDocument(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	e, err := Open(fs, "tiny", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.DeleteDocument(2, tinyDocs[2].Text); err != nil {
		t.Fatal(err)
	}
	res, _ := resultsOf(e.Run(nil, Request{Query: "information"}))
	for _, r := range res {
		if r.Doc == 2 {
			t.Fatalf("deleted doc still retrieved: %v", res)
		}
	}
	if len(res) != 1 || res[0].Doc != 0 {
		t.Fatalf("results = %v", res)
	}
	entry, _ := e.Dictionary().Lookup("information")
	if entry.DF != 1 {
		t.Fatalf("DF after delete = %d", entry.DF)
	}
	// Deleting a nonexistent doc errors.
	if err := e.DeleteDocument(99, "x"); err == nil {
		t.Fatal("bad delete accepted")
	}
	// Deleting with text containing terms the doc never had is safe.
	if err := e.DeleteDocument(0, "zebra information"); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyIncrementalMatchesRebuild: adding documents one by one to
// Mneme yields the same search results as rebuilding from scratch.
func TestPropertyIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	mkdoc := func() string {
		n := rng.Intn(12) + 3
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	var texts []string
	for i := 0; i < 40; i++ {
		texts = append(texts, mkdoc())
	}
	split := 25

	// Engine A: batch-build the first 25, then add 15 incrementally.
	fsA := newFS()
	var docsA []index.Doc
	for i := 0; i < split; i++ {
		docsA = append(docsA, index.Doc{ID: uint32(i), Text: texts[i]})
	}
	if _, err := Build(fsA, "c", &SliceDocs{Docs: docsA}, BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		t.Fatal(err)
	}
	ea, err := Open(fsA, "c", BackendMneme, WithAnalyzer(plainAnalyzer()), WithPlan(BufferPlan{MediumBytes: 1 << 16}))
	if err != nil {
		t.Fatal(err)
	}
	defer ea.Close()
	for i := split; i < len(texts); i++ {
		if _, err := ea.AddDocument(texts[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Engine B: batch-build all 40.
	fsB := newFS()
	var docsB []index.Doc
	for i := range texts {
		docsB = append(docsB, index.Doc{ID: uint32(i), Text: texts[i]})
	}
	if _, err := Build(fsB, "c", &SliceDocs{Docs: docsB}, BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		t.Fatal(err)
	}
	eb, err := Open(fsB, "c", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer eb.Close()

	for _, q := range []string{"alpha", "#and(beta gamma)", "delta epsilon", "#or(zeta theta)"} {
		ra, err := resultsOf(ea.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := resultsOf(eb.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("%q: %d vs %d results", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Doc != rb[i].Doc || math.Abs(ra[i].Score-rb[i].Score) > 1e-12 {
				t.Fatalf("%q rank %d: incremental %v rebuild %v", q, i, ra[i], rb[i])
			}
		}
	}
}

func TestOpenErrors(t *testing.T) {
	fs := newFS()
	if _, err := Open(fs, "missing", BackendBTree); err == nil {
		t.Fatal("Open missing collection succeeded")
	}
	buildTiny(t, fs, "tiny")
	if _, err := Open(fs, "tiny", BackendKind(9)); err == nil {
		t.Fatal("bad backend kind accepted")
	}
}

func TestBuildSingleBackend(t *testing.T) {
	fs := newFS()
	st, err := Build(fs, "only-mn", &SliceDocs{Docs: tinyDocs}, BuildOptions{
		Analyzer: plainAnalyzer(),
		Backends: []BackendKind{BackendMneme},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.BTreeBytes != 0 || st.MnemeBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := Open(fs, "only-mn", BackendMneme, WithAnalyzer(plainAnalyzer())); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "only-mn", BackendBTree, WithAnalyzer(plainAnalyzer())); err == nil {
		t.Fatal("opened a backend that was never built")
	}
}

func TestEngineExplain(t *testing.T) {
	fs := newFS()
	buildTiny(t, fs, "tiny")
	_, mn := openBoth(t, fs, "tiny", BufferPlan{})
	defer mn.Close()
	q := "#and(information retrieval)"
	res, err := resultsOf(mn.Run(nil, Request{Query: q, TopK: 1}))
	if err != nil || len(res) == 0 {
		t.Fatalf("search: %v", err)
	}
	ex, err := mn.Explain(q, res[0].Doc)
	if err != nil {
		t.Fatal(err)
	}
	if d := ex.Belief - res[0].Score; d > 1e-12 || d < -1e-12 {
		t.Fatalf("explain %.6f vs score %.6f", ex.Belief, res[0].Score)
	}
	// Fully stopped queries explain gracefully.
	stemmed, err := Open(fs, "tiny", BackendMneme)
	if err != nil {
		t.Fatal(err)
	}
	defer stemmed.Close()
	ex, err = stemmed.Explain("the of", 0)
	if err != nil || ex == nil {
		t.Fatalf("stopped explain: %v", err)
	}
}

func BenchmarkEngineSearch(b *testing.B) {
	fs := newFS()
	var docs []index.Doc
	rng := rand.New(rand.NewSource(2))
	for d := 0; d < 2000; d++ {
		text := ""
		for w := 0; w < 60; w++ {
			text += fmt.Sprintf("w%d ", rng.Intn(1500))
		}
		docs = append(docs, index.Doc{ID: uint32(d), Text: text})
	}
	if _, err := Build(fs, "bench", &SliceDocs{Docs: docs}, BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		b.Fatal(err)
	}
	e, err := Open(fs, "bench", BackendMneme,
		WithAnalyzer(plainAnalyzer()),
		WithPlan(BufferPlan{SmallBytes: 12 << 10, MediumBytes: 64 << 10, LargeBytes: 256 << 10}))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	queries := []string{"w1 w2 w3", "#and(w10 w20)", "#or(w5 w7 w9)"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(nil, Request{Query: queries[i%len(queries)], TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
