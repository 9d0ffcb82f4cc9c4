package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/vfs"
)

// chunkedCollection builds a collection containing at least one list
// beyond MediumListMax, once plain and once chunked, on separate file
// systems.
func chunkedCollection(t *testing.T, chunk int) (plainFS, chunkedFS *vfs.FS) {
	t.Helper()
	mkdocs := func() *SliceDocs {
		docs := make([]string, 2500)
		for d := range docs {
			text := "heavy " // in every doc: list well beyond 4 KB
			if d%4 == 0 {
				text += "mid "
			}
			text += fmt.Sprintf("unique%d", d)
			docs[d] = text
		}
		s := &SliceDocs{}
		for i, text := range docs {
			s.Docs = append(s.Docs, index.Doc{ID: uint32(i), Text: text})
		}
		return s
	}
	plainFS = newFS()
	if _, err := Build(plainFS, "col", mkdocs(), BuildOptions{Analyzer: plainAnalyzer()}); err != nil {
		t.Fatal(err)
	}
	chunkedFS = newFS()
	if _, err := Build(chunkedFS, "col", mkdocs(), BuildOptions{
		Analyzer:        plainAnalyzer(),
		ChunkLargeLists: chunk,
	}); err != nil {
		t.Fatal(err)
	}
	return plainFS, chunkedFS
}

func openChunked(t *testing.T, fs *vfs.FS, chunk int) *Engine {
	t.Helper()
	e, err := Open(fs, "col", BackendMneme,
		WithAnalyzer(plainAnalyzer()),
		WithPlan(BufferPlan{SmallBytes: 12 << 10, MediumBytes: 64 << 10, LargeBytes: 256 << 10}),
		WithChunking(chunk))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestChunkedBuildMarksLargeLists(t *testing.T) {
	_, cfs := chunkedCollection(t, 1024)
	e := openChunked(t, cfs, 1024)
	defer e.Close()
	heavy, ok := e.Dictionary().Lookup("heavy")
	if !ok {
		t.Fatal("heavy missing")
	}
	if heavy.ListBytes <= MediumListMax {
		t.Fatalf("test needs a large list; got %d bytes", heavy.ListBytes)
	}
	if !isChunkedV2(heavy.Ref) {
		t.Fatal("large list not stored chunked")
	}
	mid, _ := e.Dictionary().Lookup("mid")
	if isChunked(mid.Ref) || isChunkedV2(mid.Ref) {
		t.Fatal("medium list unexpectedly chunked")
	}
}

func TestChunkedSearchParity(t *testing.T) {
	pfs, cfs := chunkedCollection(t, 1024)
	plain := openChunked(t, pfs, 0)
	defer plain.Close()
	chunked := openChunked(t, cfs, 1024)
	defer chunked.Close()

	for _, q := range []string{"heavy", "#and(heavy mid)", "heavy unique42", "#phrase(heavy mid)"} {
		rp, err := resultsOf(plain.Run(nil, Request{Query: q, TopK: 20}))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := resultsOf(chunked.Run(nil, Request{Query: q, TopK: 20}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rp) != len(rc) {
			t.Fatalf("%q: %d vs %d results", q, len(rp), len(rc))
		}
		for i := range rp {
			if rp[i].Doc != rc[i].Doc || math.Abs(rp[i].Score-rc[i].Score) > 1e-12 {
				t.Fatalf("%q rank %d: plain %v chunked %v", q, i, rp[i], rc[i])
			}
		}
	}
}

func TestChunkedDAATStreams(t *testing.T) {
	pfs, cfs := chunkedCollection(t, 1024)
	plain := openChunked(t, pfs, 0)
	defer plain.Close()
	chunked := openChunked(t, cfs, 1024)
	defer chunked.Close()

	rp, err := resultsOf(plain.Run(nil, Request{Query: "heavy mid", TopK: 15, Mode: ModeDAAT}))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := resultsOf(chunked.Run(nil, Request{Query: "heavy mid", TopK: 15, Mode: ModeDAAT}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rp) != len(rc) {
		t.Fatalf("%d vs %d results", len(rp), len(rc))
	}
	for i := range rp {
		if rp[i].Doc != rc[i].Doc || math.Abs(rp[i].Score-rc[i].Score) > 1e-12 {
			t.Fatalf("rank %d: plain %v chunked %v", i, rp[i], rc[i])
		}
	}
	// The chunked engine's lookup counters must still be maintained.
	if c := chunked.Counters(); c.Lookups == 0 || c.Postings == 0 {
		t.Fatalf("chunked counters = %+v", c)
	}
}

func TestChunkedIncrementalUpdate(t *testing.T) {
	_, cfs := chunkedCollection(t, 1024)
	e := openChunked(t, cfs, 1024)
	defer e.Close()

	before, _ := resultsOf(e.Run(nil, Request{Query: "heavy"}))
	id, err := e.AddDocument("heavy heavy heavy addition")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := resultsOf(e.Run(nil, Request{Query: "heavy"}))
	if len(after) != len(before)+1 {
		t.Fatalf("heavy matches %d -> %d", len(before), len(after))
	}
	found := false
	for _, r := range after {
		if r.Doc == id {
			found = true
		}
	}
	if !found {
		t.Fatal("new doc not retrievable through the chunked list")
	}
	// The updated record is still chunked.
	heavy, _ := e.Dictionary().Lookup("heavy")
	if !isChunked(heavy.Ref) && !isChunkedV2(heavy.Ref) {
		t.Fatal("update lost chunking")
	}
	// Deleting the document shrinks the list again.
	if err := e.DeleteDocument(id, "heavy heavy heavy addition"); err != nil {
		t.Fatal(err)
	}
	final, _ := resultsOf(e.Run(nil, Request{Query: "heavy"}))
	if len(final) != len(before) {
		t.Fatalf("after delete: %d matches, want %d", len(final), len(before))
	}
	// Persistence across reopen.
	if err := e.SaveMeta(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2 := openChunked(t, cfs, 1024)
	defer e2.Close()
	res, err := resultsOf(e2.Run(nil, Request{Query: "heavy"}))
	if err != nil || len(res) != len(before) {
		t.Fatalf("after reopen: %d matches, %v", len(res), err)
	}
}
