package repro

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mneme"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// TestEndToEndPipeline drives the whole stack the way the command-line
// tools do: generate a synthetic collection, index it under both
// storage managers, persist the simulated file system as an image,
// reload it, search on both backends with identical results, update the
// Mneme side incrementally, and reorganize the store — one pass through
// every module in the repository.
func TestEndToEndPipeline(t *testing.T) {
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	spec := collection.Spec{
		Name: "e2e", Docs: 600, AvgLen: 90,
		Vocab: 1500, TailVocab: 2500, Seed: 77,
	}

	// --- Build. ---
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: 1 << 20})
	stats, err := core.Build(fs, "e2e", spec.Stream(), core.BuildOptions{Analyzer: an})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != 600 || stats.Records == 0 {
		t.Fatalf("build stats = %+v", stats)
	}

	// --- Persist and reload the file-system image. ---
	var img bytes.Buffer
	if err := fs.DumpImage(&img); err != nil {
		t.Fatal(err)
	}
	fs2, err := vfs.LoadImage(bytes.NewReader(img.Bytes()), vfs.Options{OSCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// --- Open both backends on the reloaded image. ---
	bt, err := core.Open(fs2, "e2e", core.BackendBTree, core.WithAnalyzer(an))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	mn, err := core.Open(fs2, "e2e", core.BackendMneme,
		core.WithAnalyzer(an),
		core.WithPlan(core.BufferPlan{SmallBytes: 12 << 10, MediumBytes: 48 << 10, LargeBytes: 128 << 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()

	// --- Queries from the collection's own generator. ---
	queries := spec.GenQueries(collection.QuerySpec{
		Name: "q", Queries: 25, MeanTerms: 8,
		Style: collection.StyleBoolean, Repeat: 0.4, Seed: 9,
	})
	for _, q := range queries {
		r1, err := resultsOf(bt.Run(nil, core.Request{Query: q.Text, TopK: 10}))
		if err != nil {
			t.Fatalf("btree %s: %v", q.ID, err)
		}
		r2, err := resultsOf(mn.Run(nil, core.Request{Query: q.Text, TopK: 10}))
		if err != nil {
			t.Fatalf("mneme %s: %v", q.ID, err)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%s: result counts differ", q.ID)
		}
		for i := range r1 {
			if r1[i].Doc != r2[i].Doc || math.Abs(r1[i].Score-r2[i].Score) > 1e-12 {
				t.Fatalf("%s rank %d: %v vs %v", q.ID, i, r1[i], r2[i])
			}
		}
	}

	// --- Both engines performed identical retrieval work. ---
	if bt.Counters().Lookups != mn.Counters().Lookups {
		t.Fatalf("lookup counts differ: %d vs %d", bt.Counters().Lookups, mn.Counters().Lookups)
	}

	// --- Explain agrees with the ranked score on the top document. ---
	if r, _ := resultsOf(mn.Run(nil, core.Request{Query: queries[0].Text, TopK: 1})); len(r) > 0 {
		ex, err := mn.Explain(queries[0].Text, r[0].Doc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ex.Belief-r[0].Score) > 1e-12 {
			t.Fatalf("explain %.6f vs score %.6f", ex.Belief, r[0].Score)
		}
	}

	// --- Recall/precision machinery on a fabricated judgment. ---
	res, _ := resultsOf(mn.Run(nil, core.Request{Query: queries[0].Text, TopK: 20}))
	if len(res) > 2 {
		rel := map[uint32]bool{res[0].Doc: true, res[2].Doc: true}
		ranked := make([]uint32, len(res))
		for i, r := range res {
			ranked[i] = r.Doc
		}
		m := eval.Evaluate(ranked, rel)
		if m.Recall != 1 || m.AveragePrecision <= 0 {
			t.Fatalf("eval metrics = %+v", m)
		}
	}

	// --- Incremental update on the Mneme side only. ---
	newDoc := "t26 t27 t28 freshterm"
	id, err := mn.AddDocument(newDoc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultsOf(mn.Run(nil, core.Request{Query: "freshterm"}))
	if err != nil || len(got) != 1 || got[0].Doc != id {
		t.Fatalf("new doc not searchable: %v %v", got, err)
	}
	if err := mn.SaveMeta(); err != nil {
		t.Fatal(err)
	}

	// --- Store reorganization preserves everything. ---
	st, err := mneme.Open(fs2, "e2e.mn")
	if err != nil {
		t.Fatal(err)
	}
	copyStore, err := st.CopyTo("e2e.compact")
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	copyStore.ForEach(func(mneme.ObjectID, int) bool { live++; return true })
	orig := 0
	st.ForEach(func(mneme.ObjectID, int) bool { orig++; return true })
	if live != orig {
		t.Fatalf("copy has %d objects, source %d", live, orig)
	}
	if err := copyStore.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndChunkedPipeline repeats the core of the pipeline with
// chunked large lists enabled, including document-at-a-time search.
func TestEndToEndChunkedPipeline(t *testing.T) {
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	spec := collection.Spec{
		Name: "e2ec", Docs: 1200, AvgLen: 100,
		Vocab: 1200, TailVocab: 2000, StopRanks: 4, Seed: 13,
	}
	const chunk = 1500

	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: 1 << 20})
	if _, err := core.Build(fs, "c", spec.Stream(), core.BuildOptions{
		Analyzer:        an,
		Backends:        []core.BackendKind{core.BackendMneme},
		ChunkLargeLists: chunk,
	}); err != nil {
		t.Fatal(err)
	}
	e, err := core.Open(fs, "c", core.BackendMneme,
		core.WithAnalyzer(an),
		core.WithPlan(core.BufferPlan{MediumBytes: 64 << 10, LargeBytes: 64 << 10}),
		core.WithChunking(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	queries := spec.GenQueries(collection.QuerySpec{
		Name: "q", Queries: 15, MeanTerms: 6,
		Style: collection.StyleWords, Repeat: 0.3, Seed: 2,
	})
	for _, q := range queries {
		taat, err := resultsOf(e.Run(nil, core.Request{Query: q.Text, TopK: 10}))
		if err != nil {
			t.Fatal(err)
		}
		daat, err := resultsOf(e.Run(nil, core.Request{Query: q.Text, TopK: 10, Mode: core.ModeDAAT}))
		if err != nil {
			t.Fatal(err)
		}
		if len(taat) != len(daat) {
			t.Fatalf("%s: TAAT %d vs DAAT %d", q.ID, len(taat), len(daat))
		}
		for i := range taat {
			if taat[i].Doc != daat[i].Doc || math.Abs(taat[i].Score-daat[i].Score) > 1e-12 {
				t.Fatalf("%s rank %d: %v vs %v", q.ID, i, taat[i], daat[i])
			}
		}
	}
}
