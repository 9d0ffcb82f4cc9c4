package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lexicon"
)

// Section 2 of the paper motivates the design with workload analysis:
// the inverted-list size distribution ("approximately 50% of the
// inverted lists are 12 bytes or less"), record compression ("The
// average compression rate for the four collections in Table 1 is about
// 60%"), and query-term repetition ("there is significant repetition of
// the terms used from query to query"). These tables regenerate that
// analysis for the synthetic collections.

// AnalyzeCollections reports per-collection record statistics: size
// class fractions and the compression rate relative to the raw
// integer-vector representation (4 bytes per integer: header, per-doc
// id and tf, and every position — exactly postings.RawSize).
func (l *Lab) AnalyzeCollections() (*Table, error) {
	t := &Table{
		Title: "Analysis (paper §2): inverted-list size classes and compression.",
		Header: []string{"Collection", "Records", "<=12B", "<=4KB", ">4KB",
			"EncodedKB", "RawKB", "Compression"},
		Note: "Compression = 1 - encoded/raw; the paper reports ~60% average. Raw = uncompressed integer vector.",
	}
	for _, c := range collectionNames() {
		b, err := l.Collection(c)
		if err != nil {
			return nil, err
		}
		eng, err := core.Open(b.FS, c, core.BackendBTree, core.WithAnalyzer(analyzer()))
		if err != nil {
			return nil, err
		}
		var records, small, medium, large int64
		var encoded, raw int64
		eng.Dictionary().Range(func(e *lexicon.Entry) bool {
			records++
			switch {
			case e.ListBytes <= core.SmallListMax:
				small++
			case int(e.ListBytes) <= core.MediumListMax:
				medium++
			default:
				large++
			}
			encoded += int64(e.ListBytes)
			// Raw integer vector: ctf+df header, then per document a
			// doc id and tf, then one integer per position (ctf total).
			raw += 4 * (2 + 2*int64(e.DF) + int64(e.CTF))
			return true
		})
		eng.Close()
		comp := 0.0
		if raw > 0 {
			comp = 1 - float64(encoded)/float64(raw)
		}
		t.Rows = append(t.Rows, []string{
			c,
			fmt.Sprintf("%d", records),
			fmt.Sprintf("%.0f%%", 100*float64(small)/float64(records)),
			fmt.Sprintf("%.0f%%", 100*float64(medium)/float64(records)),
			fmt.Sprintf("%.0f%%", 100*float64(large)/float64(records)),
			kb(encoded),
			kb(raw),
			fmt.Sprintf("%.0f%%", comp*100),
		})
	}
	return t, nil
}

// AnalyzeQueryRepetition reports per-query-set term usage: total term
// lookups, distinct terms, and the repetition ratio (lookups per
// distinct term) that makes record caching pay off.
func (l *Lab) AnalyzeQueryRepetition() (*Table, error) {
	t := &Table{
		Title:  "Analysis (paper §2): query-term repetition per query set.",
		Header: []string{"Collection", "QS", "Queries", "Lookups", "Distinct", "Lookups/Term"},
		Note:   "The paper: \"there is significant repetition of the terms used from query to query\" — the property caching exploits.",
	}
	for _, p := range matrix() {
		b, err := l.Collection(p.col)
		if err != nil {
			return nil, err
		}
		qs := b.Col.QuerySets[p.qs]
		eng, err := core.Open(b.FS, p.col, core.BackendMneme,
			core.WithAnalyzer(analyzer()), core.WithTermUse())
		if err != nil {
			return nil, err
		}
		queries := b.Col.GenQueries(qs)
		for _, q := range queries {
			if _, err := eng.Run(nil, core.Request{Query: q.Text}); err != nil {
				eng.Close()
				return nil, err
			}
		}
		c := eng.Counters()
		distinct := int64(len(eng.TermUse()))
		eng.Close()
		ratio := 0.0
		if distinct > 0 {
			ratio = float64(c.Lookups) / float64(distinct)
		}
		t.Rows = append(t.Rows, []string{
			p.col, qs.Name,
			fmt.Sprintf("%d", len(queries)),
			fmt.Sprintf("%d", c.Lookups),
			fmt.Sprintf("%d", distinct),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	return t, nil
}
