package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenScale is fixed (never env-configurable): golden bytes are only
// comparable when the collections are generated at one exact scale.
const goldenScale = 0.1

// checkGolden compares got against testdata/golden/name byte-for-byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (run with -update after intentional schema changes):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenSnapshot pins the JSON encoding of core.Snapshot — field
// names, declaration order, and the deterministic values produced by a
// fixed workload — for both backends. Every quantity in a snapshot is a
// count or byte total (never wall-clock), which is what makes the full
// value, not just the schema, golden-testable.
func TestGoldenSnapshot(t *testing.T) {
	lab := experiments.NewLab(goldenScale)
	built, err := lab.Collection("CACM")
	if err != nil {
		t.Fatal(err)
	}
	bt, mn := openPair(t, built)
	defer bt.Close()
	defer mn.Close()
	qs := built.Col.QuerySets[0]
	for _, q := range built.Col.GenQueries(qs) {
		if _, err := bt.Run(nil, core.Request{Query: q.Text}); err != nil {
			t.Fatalf("btree %s: %v", q.ID, err)
		}
		if _, err := mn.Run(nil, core.Request{Query: q.Text}); err != nil {
			t.Fatalf("mneme %s: %v", q.ID, err)
		}
	}
	btJSON, err := json.MarshalIndent(bt.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	mnJSON, err := json.MarshalIndent(mn.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot_btree.json", append(btJSON, '\n'))
	checkGolden(t, "snapshot_mneme.json", append(mnJSON, '\n'))

	// The compact Snapshot.JSON() encoding must agree with the golden
	// modulo whitespace — same fields, same order.
	compact, err := bt.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, btJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact, buf.Bytes()) {
		t.Fatalf("Snapshot.JSON() disagrees with MarshalIndent modulo whitespace:\n%s\nvs\n%s", compact, buf.Bytes())
	}
}

// TestGoldenBenchReport pins the BENCH_query.json schema: runs the same
// bench the CLI runs (same marshaling, same trailing newline) at the
// golden scale and requires byte identity with the committed file. This
// is both the determinism check (quantiles come from the simulated cost
// model, never wall-clock) and the field-ordering contract for any
// consumer parsing the report.
func TestGoldenBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bench report golden runs the full query matrix")
	}
	lab := experiments.NewLab(goldenScale)
	report, err := lab.RunBench(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bench_report.json", append(data, '\n'))
}
