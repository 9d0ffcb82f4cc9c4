package core

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/postings"
)

// mixedDocs builds a corpus whose "heavy" list is long enough
// (df > postings.BlockLen) that EncodeAuto chooses a versioned format
// (the v3 bitmap — the list is dense inside its span), while V1Postings
// forces the legacy stream format for the same data.
func mixedDocs(n int) *SliceDocs {
	s := &SliceDocs{}
	for d := 0; d < n; d++ {
		text := "heavy "
		if d%3 == 0 {
			text += "sparse "
		}
		text += fmt.Sprintf("unique%d", d)
		s.Docs = append(s.Docs, index.Doc{ID: uint32(d), Text: text})
	}
	return s
}

// fetchTerm returns the raw stored record of a term, bypassing the
// searcher, so tests can assert which postings format is on disk.
func fetchTerm(t *testing.T, e *Engine, term string) []byte {
	t.Helper()
	entry, ok := e.Dictionary().Lookup(term)
	if !ok {
		t.Fatalf("%s missing from dictionary", term)
	}
	rec, err := e.backend.Fetch(entry.Ref)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestMixedVersionStore proves legacy v1 stream records stay readable
// next to versioned (v2 block / v3 bitmap) records. A store built with
// V1Postings must rank identically to an EncodeAuto build of the same
// corpus; incremental adds then upgrade only the touched lists (Merge
// re-encodes through EncodeAuto), leaving a mixed-version store that
// must still match.
func TestMixedVersionStore(t *testing.T) {
	const nDocs = 400 // "heavy" df 400 > BlockLen and dense: EncodeAuto picks v3
	queries := []string{
		"heavy", "heavy sparse", "#and(heavy sparse)",
		"heavy unique17", "#or(heavy unique42 sparse)",
	}

	v1FS := newFS()
	if _, err := Build(v1FS, "col", mixedDocs(nDocs), BuildOptions{
		Analyzer: plainAnalyzer(), V1Postings: true,
	}); err != nil {
		t.Fatal(err)
	}
	autoFS := newFS()
	if _, err := Build(autoFS, "col", mixedDocs(nDocs), BuildOptions{
		Analyzer: plainAnalyzer(),
	}); err != nil {
		t.Fatal(err)
	}
	v1, err := Open(v1FS, "col", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	auto, err := Open(autoFS, "col", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()

	if postings.IsVersioned(fetchTerm(t, v1, "heavy")) {
		t.Fatal("V1Postings build emitted a versioned record")
	}
	if !postings.IsV3(fetchTerm(t, auto, "heavy")) {
		t.Fatal("EncodeAuto build kept a dense df>BlockLen list out of bitmap format")
	}

	for _, q := range queries {
		want, err := resultsOf(auto.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := resultsOf(v1.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "v1 build "+q, got, want)
	}

	// Pruned DAAT over v1 records exercises the linear-advance fallback:
	// stream iterators cannot skip, but the ranking must not change.
	v1P, err := Open(v1FS, "col", BackendMneme, WithAnalyzer(plainAnalyzer()), WithPruning())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want, err := resultsOf(auto.Run(nil, Request{Query: q, TopK: 10, Mode: ModeDAAT}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := resultsOf(v1P.Run(nil, Request{Query: q, TopK: 10, Mode: ModeDAAT}))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "v1 pruned daat "+q, got, want)
	}
	v1P.Close()

	// Incremental adds re-encode the touched lists through EncodeAuto,
	// upgrading them to a versioned format while untouched lists keep
	// their v1 records.
	for _, e := range []*Engine{v1, auto} {
		if _, err := e.AddDocument("heavy sparse fresh"); err != nil {
			t.Fatal(err)
		}
	}
	if !postings.IsVersioned(fetchTerm(t, v1, "heavy")) {
		t.Fatal("touched large list was not upgraded on merge")
	}
	if postings.IsVersioned(fetchTerm(t, v1, "unique17")) {
		t.Fatal("untouched list changed format")
	}
	for _, q := range append(queries, "fresh") {
		want, err := resultsOf(auto.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := resultsOf(v1.Run(nil, Request{Query: q}))
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "mixed store "+q, got, want)
	}
}
