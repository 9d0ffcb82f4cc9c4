package repro

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/textproc"
)

// diffScale keeps the differential suite fast while still covering every
// collection and query set of the paper matrix.
const diffScale = 0.1

// openPair opens the same built collection on both storage backends,
// Mneme under its paper buffer plan.
func openPair(t *testing.T, built *experiments.Built, extra ...core.Option) (bt, mn *core.Engine) {
	t.Helper()
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
	btOpts := append([]core.Option{core.WithAnalyzer(an)}, extra...)
	bt, err := core.Open(built.FS, built.Col.Name, core.BackendBTree, btOpts...)
	if err != nil {
		t.Fatalf("open btree: %v", err)
	}
	mnOpts := append([]core.Option{
		core.WithAnalyzer(an), core.WithPlan(experiments.PlanFor(built)),
	}, extra...)
	mn, err = core.Open(built.FS, built.Col.Name, core.BackendMneme, mnOpts...)
	if err != nil {
		bt.Close()
		t.Fatalf("open mneme: %v", err)
	}
	return bt, mn
}

// resultsOf projects a Run response onto its ranking.
func resultsOf(resp core.Response, err error) ([]core.Result, error) { return resp.Results, err }

// assertSameResults requires identical rankings and doc counts, with
// scores equal to within 1e-9 (belief arithmetic is the same float64
// sequence on both backends; the tolerance only absorbs printing-level
// differences, not reordering).
func assertSameResults(t *testing.T, label string, r1, r2 []core.Result) {
	t.Helper()
	if len(r1) != len(r2) {
		t.Fatalf("%s: doc counts differ: btree %d vs mneme %d", label, len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Doc != r2[i].Doc {
			t.Fatalf("%s: rank %d: btree doc %d vs mneme doc %d", label, i, r1[i].Doc, r2[i].Doc)
		}
		if math.Abs(r1[i].Score-r2[i].Score) > 1e-9 {
			t.Fatalf("%s: rank %d (doc %d): scores differ: %.12f vs %.12f",
				label, i, r1[i].Doc, r1[i].Score, r2[i].Score)
		}
	}
}

// TestDifferentialBackends runs the full paper query mix — every
// (collection, query set) row of the evaluation matrix — on the same
// index image under both the B-tree and Mneme backends and requires
// identical rankings. The storage manager must be invisible to the
// retrieval engine; any divergence is a storage bug, not a tuning
// difference.
func TestDifferentialBackends(t *testing.T) {
	lab := experiments.NewLab(diffScale)
	for _, row := range matrixRows {
		built, err := lab.Collection(row.col)
		if err != nil {
			t.Fatal(err)
		}
		qs := built.Col.QuerySets[row.qs]
		t.Run(fmt.Sprintf("%s_qs%s", row.col, qs.Name), func(t *testing.T) {
			bt, mn := openPair(t, built)
			defer bt.Close()
			defer mn.Close()
			for _, q := range built.Col.GenQueries(qs) {
				r1, err := resultsOf(bt.Run(nil, core.Request{Query: q.Text}))
				if err != nil {
					t.Fatalf("btree %s: %v", q.ID, err)
				}
				r2, err := resultsOf(mn.Run(nil, core.Request{Query: q.Text}))
				if err != nil {
					t.Fatalf("mneme %s: %v", q.ID, err)
				}
				assertSameResults(t, q.ID, r1, r2)
			}
		})
	}
}

// TestDifferentialBackendsDegraded repeats the differential run with
// both engines opened WithDegraded but no faults injected: degraded
// mode must be a pure error-handling policy with zero effect on healthy
// results, and must count zero corrupt records.
func TestDifferentialBackendsDegraded(t *testing.T) {
	lab := experiments.NewLab(diffScale)
	for _, row := range matrixRows {
		built, err := lab.Collection(row.col)
		if err != nil {
			t.Fatal(err)
		}
		qs := built.Col.QuerySets[row.qs]
		t.Run(fmt.Sprintf("%s_qs%s", row.col, qs.Name), func(t *testing.T) {
			bt, mn := openPair(t, built, core.WithDegraded())
			defer bt.Close()
			defer mn.Close()
			for _, q := range built.Col.GenQueries(qs) {
				r1, err := resultsOf(bt.Run(nil, core.Request{Query: q.Text}))
				if err != nil {
					t.Fatalf("btree %s: %v", q.ID, err)
				}
				r2, err := resultsOf(mn.Run(nil, core.Request{Query: q.Text}))
				if err != nil {
					t.Fatalf("mneme %s: %v", q.ID, err)
				}
				assertSameResults(t, q.ID, r1, r2)
			}
			if n := bt.Counters().CorruptRecords; n != 0 {
				t.Fatalf("btree: %d corrupt records counted with no faults injected", n)
			}
			if n := mn.Counters().CorruptRecords; n != 0 {
				t.Fatalf("mneme: %d corrupt records counted with no faults injected", n)
			}
		})
	}
}

// diffTopK is the ranking depth of the pruning differential: deep
// enough that eligible queries carry several terms past the heap-fill
// point, shallow enough that pruning actually engages.
const diffTopK = 10

// TestDifferentialMaxScore runs the full paper query matrix with
// MaxScore pruning enabled (WithPruning) and requires the top-k to
// equal exhaustive document-at-a-time evaluation — same documents, same
// order, same scores — on both backends, and to agree with
// term-at-a-time evaluation at the same depth. Pruning is a pure
// evaluation-order optimization; any ranking difference is a bug in the
// bound arithmetic, not a tuning knob.
func TestDifferentialMaxScore(t *testing.T) {
	lab := experiments.NewLab(diffScale)
	for _, row := range matrixRows {
		built, err := lab.Collection(row.col)
		if err != nil {
			t.Fatal(err)
		}
		qs := built.Col.QuerySets[row.qs]
		t.Run(fmt.Sprintf("%s_qs%s", row.col, qs.Name), func(t *testing.T) {
			bt, mn := openPair(t, built)
			defer bt.Close()
			defer mn.Close()
			btP, mnP := openPair(t, built, core.WithPruning())
			defer btP.Close()
			defer mnP.Close()
			for _, q := range built.Col.GenQueries(qs) {
				exact, err := resultsOf(bt.Run(nil, core.Request{Query: q.Text, TopK: diffTopK, Mode: core.ModeDAAT}))
				if err != nil {
					t.Fatalf("btree daat %s: %v", q.ID, err)
				}
				for label, eng := range map[string]*core.Engine{"btree": btP, "mneme": mnP} {
					pruned, err := resultsOf(eng.Run(nil, core.Request{Query: q.Text, TopK: diffTopK, Mode: core.ModeDAAT}))
					if err != nil {
						t.Fatalf("%s pruned %s: %v", label, q.ID, err)
					}
					assertSameResults(t, q.ID+"/"+label+"-pruned", exact, pruned)
				}
				// TAAT cross-check, skipping proximity queries: DAAT
				// bounds a proximity node's df by its rarest child (see
				// daat.go collectLeaves) where TAAT counts exact window
				// matches, so the two paths agree only on queries
				// without #phrase/#odN/#uwN.
				if !strings.Contains(q.Text, "#phrase") &&
					!strings.Contains(q.Text, "#od") && !strings.Contains(q.Text, "#uw") {
					taat, err := resultsOf(mn.Run(nil, core.Request{Query: q.Text, TopK: diffTopK}))
					if err != nil {
						t.Fatalf("mneme taat %s: %v", q.ID, err)
					}
					assertSameResults(t, q.ID+"/taat", exact, taat)
				}
			}
		})
	}
}

// TestDifferentialMaxScoreDegraded repeats the pruning differential
// with the pruned engines opened WithDegraded (no faults injected):
// the degraded policy must not perturb pruned rankings either.
func TestDifferentialMaxScoreDegraded(t *testing.T) {
	lab := experiments.NewLab(diffScale)
	for _, row := range matrixRows {
		built, err := lab.Collection(row.col)
		if err != nil {
			t.Fatal(err)
		}
		qs := built.Col.QuerySets[row.qs]
		t.Run(fmt.Sprintf("%s_qs%s", row.col, qs.Name), func(t *testing.T) {
			bt, mn := openPair(t, built)
			defer bt.Close()
			defer mn.Close()
			btP, mnP := openPair(t, built, core.WithPruning(), core.WithDegraded())
			defer btP.Close()
			defer mnP.Close()
			for _, q := range built.Col.GenQueries(qs) {
				exact, err := resultsOf(mn.Run(nil, core.Request{Query: q.Text, TopK: diffTopK, Mode: core.ModeDAAT}))
				if err != nil {
					t.Fatalf("mneme daat %s: %v", q.ID, err)
				}
				for label, eng := range map[string]*core.Engine{"btree": btP, "mneme": mnP} {
					pruned, err := resultsOf(eng.Run(nil, core.Request{Query: q.Text, TopK: diffTopK, Mode: core.ModeDAAT}))
					if err != nil {
						t.Fatalf("%s pruned %s: %v", label, q.ID, err)
					}
					assertSameResults(t, q.ID+"/"+label+"-pruned-degraded", exact, pruned)
				}
			}
			if n := btP.Counters().CorruptRecords + mnP.Counters().CorruptRecords; n != 0 {
				t.Fatalf("%d corrupt records counted with no faults injected", n)
			}
		})
	}
}
