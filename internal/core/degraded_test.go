package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mneme"
	"repro/internal/vfs"
)

// rotStore flips one byte every 512 bytes of the store file past the
// header, guaranteeing every persisted segment fails its checksum.
func rotStore(t *testing.T, fs *vfs.FS, name string) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size := f.Size()
	f.Close()
	for off := int64(512); off < size; off += 512 {
		if err := fs.FlipByte(name, off, 0x40); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDegradedSearchSurvivesRottenStore rots every segment of a Mneme
// index under two already-open engines: the strict one must abort with
// the checksum error, the WithDegraded one must finish the whole query
// batch with the damage tallied in CorruptRecords and the Snapshot.
func TestDegradedSearchSurvivesRottenStore(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "rot")
	strict, err := Open(fs, "rot", BackendMneme, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	deg, err := Open(fs, "rot", BackendMneme, WithAnalyzer(plainAnalyzer()), WithDegraded())
	if err != nil {
		t.Fatal(err)
	}
	defer deg.Close()

	// Intact store: both engines agree and count no corruption.
	want, err := resultsOf(strict.Run(nil, Request{Query: queries[0], TopK: 10}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultsOf(deg.Run(nil, Request{Query: queries[0], TopK: 10}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "intact store", got, want)
	if c := deg.Counters(); c.CorruptRecords != 0 {
		t.Fatalf("intact store counted %d corrupt records", c.CorruptRecords)
	}

	rotStore(t, fs, "rot"+suffixMneme)

	if _, err := strict.Run(nil, Request{Query: "w1 w2 w3", TopK: 10}); !errors.Is(err, mneme.ErrCorrupt) {
		t.Fatalf("strict search on rotted store: want ErrCorrupt, got %v", err)
	}
	for i, q := range queries {
		if _, err := deg.Run(nil, Request{Query: q, TopK: 10}); err != nil {
			t.Fatalf("degraded query %d %q: %v", i, q, err)
		}
	}
	c := deg.Counters()
	if c.CorruptRecords == 0 {
		t.Fatal("degraded run over a rotted store counted no corrupt records")
	}
	snap := deg.Snapshot()
	if snap.CorruptRecords != c.CorruptRecords {
		t.Fatalf("snapshot CorruptRecords = %d, counters say %d", snap.CorruptRecords, c.CorruptRecords)
	}
	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"corrupt_records":`)) {
		t.Fatalf("snapshot JSON lacks corrupt_records: %s", js)
	}
}

// TestDegradedRanksSurvivingTerms injects a single read fault: the
// first term of the query is lost, but the degraded searcher still
// ranks documents from the surviving term.
func TestDegradedRanksSurvivingTerms(t *testing.T) {
	fs := newFS()
	concurrencyCorpus(t, fs, "skip")
	eng, err := Open(fs, "skip", BackendMneme, WithAnalyzer(plainAnalyzer()), WithDegraded())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const query = "#or(w1 w2)"
	want, err := resultsOf(eng.Run(nil, Request{Query: query, TopK: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline query matched nothing")
	}

	// The first disk read after arming the plan is w1's record fetch.
	fs.SetFaultPlan(vfs.NewFaultPlan(1).FailRead(1))
	got, err := resultsOf(eng.Run(nil, Request{Query: query, TopK: 10}))
	fs.SetFaultPlan(nil)
	if err != nil {
		t.Fatalf("degraded search with injected fault: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("degraded search ranked nothing despite a surviving term")
	}
	if c := eng.Counters(); c.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", c.CorruptRecords)
	}

	// With the plan cleared nothing is poisoned: the query recovers.
	again, err := resultsOf(eng.Run(nil, Request{Query: query, TopK: 10}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "after fault cleared", again, want)
}

// TestDegradedAppliesToBTree exercises the same skip logic over the
// B-tree backend, whose page reads surface injected faults.
func TestDegradedAppliesToBTree(t *testing.T) {
	fs := newFS()
	concurrencyCorpus(t, fs, "bt")

	strict, err := Open(fs, "bt", BackendBTree, WithAnalyzer(plainAnalyzer()))
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	fs.SetFaultPlan(vfs.NewFaultPlan(1).FailRead(1))
	_, err = strict.Run(nil, Request{Query: "w1", TopK: 10})
	fs.SetFaultPlan(nil)
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("strict btree search under read fault: want ErrInjected, got %v", err)
	}

	deg, err := Open(fs, "bt", BackendBTree, WithAnalyzer(plainAnalyzer()), WithDegraded())
	if err != nil {
		t.Fatal(err)
	}
	defer deg.Close()
	fs.SetFaultPlan(vfs.NewFaultPlan(1).FailRead(1))
	_, err = deg.Run(nil, Request{Query: "w1", TopK: 10})
	fs.SetFaultPlan(nil)
	if err != nil {
		t.Fatalf("degraded btree search under read fault: %v", err)
	}
	if c := deg.Counters(); c.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", c.CorruptRecords)
	}
}

// TestDegradedBatchCompletes runs the batch driver over a rotted store:
// no query may fail, and the per-engine tally must cover the batch.
func TestDegradedBatchCompletes(t *testing.T) {
	fs := newFS()
	queries := concurrencyCorpus(t, fs, "degbatch")
	eng, err := Open(fs, "degbatch", BackendMneme, WithAnalyzer(plainAnalyzer()), WithDegraded())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rotStore(t, fs, "degbatch"+suffixMneme)
	res, err := eng.SearchBatch(queries, Parallelism(4), TopK(10))
	if err != nil {
		t.Fatalf("degraded batch: %v", err)
	}
	if len(res) != len(queries) {
		t.Fatalf("batch returned %d result sets, want %d", len(res), len(queries))
	}
	if c := eng.Counters(); c.CorruptRecords == 0 {
		t.Fatal("batch over rotted store counted no corrupt records")
	}
}
