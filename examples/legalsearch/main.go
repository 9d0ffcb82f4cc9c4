// Legalsearch: a Legal-collection-style session that shows the paper's
// storage-level machinery at work — the three object pools, the Table 2
// buffer plan, the reservation optimization, and the way iterative
// query refinement (the source of term repetition) turns into buffer
// hits.
//
//	go run ./examples/legalsearch
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

func main() {
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: 512 << 10})
	an := textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))

	// A scaled-down Legal-like collection: long case descriptions with
	// a Zipfian vocabulary.
	spec := collection.Spec{
		Name: "legal", Docs: 1200, AvgLen: 400,
		Vocab: 8000, TailVocab: 15000, Seed: 42,
	}
	fmt.Println("building the collection (both backends)...")
	stream := spec.Stream()
	stats, err := core.Build(fs, "legal", stream, core.BuildOptions{Analyzer: an})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d docs, %d records; B-tree %d KB, Mneme %d KB\n\n",
		stats.Docs, stats.Records, stats.BTreeBytes/1024, stats.MnemeBytes/1024)

	// Compute the paper's buffer plan from the dictionary.
	probe, err := core.Open(fs, "legal", core.BackendMneme, core.WithAnalyzer(an))
	if err != nil {
		log.Fatal(err)
	}
	var maxList int64
	probe.Dictionary().Range(func(e *lexicon.Entry) bool {
		if int64(e.ListBytes) > maxList {
			maxList = int64(e.ListBytes)
		}
		return true
	})
	probe.Close()
	plan := core.BufferPlan{
		SmallBytes:  3 * 4096,
		MediumBytes: max64(3*8192, 3*maxList*9/100),
		LargeBytes:  3 * maxList,
	}
	fmt.Printf("buffer plan (Table 2 heuristics): small %d KB, medium %d KB, large %d KB\n\n",
		plan.SmallBytes/1024, plan.MediumBytes/1024, plan.LargeBytes/1024)

	eng, err := core.Open(fs, "legal", core.BackendMneme,
		core.WithAnalyzer(an), core.WithPlan(plan))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// An iterative refinement session: each query reuses terms from the
	// previous one — "As the query is refined to more precisely
	// represent the user's information need, terms from earlier queries
	// will reappear in later queries" (paper §2).
	session := []string{
		"t27 t31",
		"#and(t27 t31 t55)",
		"#wsum(3 t27 2 t31 1 t55 1 t89)",
		"#and(t27 #or(t31 t55) #not(t144))",
	}
	for i, q := range session {
		resp, err := eng.Run(context.Background(), core.Request{Query: q, TopK: 5})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("refinement %d: %s\n", i+1, q)
		for j, r := range resp.Results {
			fmt.Printf("   %d. case %-6d belief %.4f\n", j+1, r.Doc, r.Score)
		}
		for _, pool := range []string{"small", "medium", "large"} {
			bs := eng.Backend().BufferStats()[pool]
			if bs.Refs > 0 {
				fmt.Printf("   [%s buffer: %d refs, %d hits, rate %.2f]\n",
					pool, bs.Refs, bs.Hits, bs.HitRate())
			}
		}
		fmt.Println()
	}

	c := eng.Counters()
	fmt.Printf("session: %d queries, %d lookups, %d postings processed\n",
		c.Queries, c.Lookups, c.Postings)
	fmt.Println("note the rising hit rates: refinement repetition is exactly the")
	fmt.Println("access pattern the paper's record caching exploits.")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
