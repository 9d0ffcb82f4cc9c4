// Quickstart: index a handful of documents and search them with the
// INQUERY engine on top of the Mneme persistent object store.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/vfs"
)

func main() {
	// The storage stack is simulated: an in-memory "disk" with 8 Kbyte
	// transfer blocks and an OS buffer cache, so every I/O is counted.
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: 1 << 20})

	docs := []index.Doc{
		{ID: 0, Text: "Full-text information retrieval systems have unusual and challenging data management requirements."},
		{ID: 1, Text: "An inverted file index consists of a record, or inverted list, for each term in the collection."},
		{ID: 2, Text: "The Mneme persistent object store was designed to be efficient and extensible."},
		{ID: 3, Text: "Objects are grouped into pools; a pool defines management policies for its objects."},
		{ID: 4, Text: "INQUERY is a probabilistic retrieval system based upon a Bayesian inference network model."},
		{ID: 5, Text: "Replacing the B-tree package with the object store improved retrieval performance."},
	}

	// Build the collection. Both storage backends are produced from the
	// same record stream; they store identical bytes.
	stats, err := core.Build(fs, "quickstart", &core.SliceDocs{Docs: docs}, core.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d docs, %d terms, %d records (B-tree %d KB, Mneme %d KB)\n\n",
		stats.Docs, stats.Terms, stats.Records, stats.BTreeBytes/1024, stats.MnemeBytes/1024)

	// Open the Mneme-backed engine with small record buffers.
	eng, err := core.Open(fs, "quickstart", core.BackendMneme,
		core.WithPlan(core.BufferPlan{SmallBytes: 8 << 10, MediumBytes: 32 << 10, LargeBytes: 64 << 10}))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	queries := []string{
		"inverted file index",
		"#and(object store)",
		"#phrase(inference network)",
		"#wsum(3 retrieval 1 performance)",
	}
	for _, q := range queries {
		resp, err := eng.Run(context.Background(), core.Request{Query: q, TopK: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %q\n", q)
		for i, r := range resp.Results {
			fmt.Printf("  %d. doc %d  belief %.4f  %.60s...\n", i+1, r.Doc, r.Score, docs[r.Doc].Text)
		}
		fmt.Println()
	}

	// The engine counts its work: record lookups, postings, and the
	// simulated I/O underneath.
	c := eng.Counters()
	io := fs.Stats()
	fmt.Printf("%d queries -> %d record lookups, %d postings, %d disk blocks read\n",
		c.Queries, c.Lookups, c.Postings, io.DiskReads)
}
