// Incremental: the paper's future-work features, implemented. Mneme's
// richer data model supports single-document addition and deletion
// (impossible in the B-tree version, which "requires the entire
// document collection to be re-indexed"), and inter-object references
// let large inverted lists be chunked into linked lists for incremental
// update and incremental retrieval (paper §6).
//
//	go run ./examples/incremental
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mneme"
	"repro/internal/vfs"
)

func main() {
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: 1 << 20})
	docs := []index.Doc{
		{ID: 0, Text: "inverted file indexes support fast term lookup"},
		{ID: 1, Text: "object stores group objects into pools and segments"},
		{ID: 2, Text: "buffer management policies decide replacement"},
	}
	if _, err := core.Build(fs, "col", &core.SliceDocs{Docs: docs}, core.BuildOptions{}); err != nil {
		log.Fatal(err)
	}

	// --- Part 1: single-document update through the object store. ---
	fmt.Println("== incremental document update ==")
	bt, err := core.Open(fs, "col", core.BackendBTree)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bt.AddDocument("new document about inverted indexes"); errors.Is(err, core.ErrNoUpdate) {
		fmt.Println("B-tree backend: AddDocument -> ErrNoUpdate (re-index required, as in the paper)")
	}
	bt.Close()

	mn, err := core.Open(fs, "col", core.BackendMneme,
		core.WithPlan(core.BufferPlan{SmallBytes: 8 << 10, MediumBytes: 32 << 10, LargeBytes: 64 << 10}))
	if err != nil {
		log.Fatal(err)
	}
	defer mn.Close()

	id, err := mn.AddDocument("a fresh case study of inverted file maintenance")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mneme backend: added document %d without re-indexing\n", id)
	resp, _ := mn.Run(context.Background(), core.Request{Query: "inverted", TopK: 10})
	fmt.Printf("  'inverted' now matches %d documents:", len(resp.Results))
	for _, r := range resp.Results {
		fmt.Printf(" %d", r.Doc)
	}
	fmt.Println()
	if err := mn.DeleteDocument(0, docs[0].Text); err != nil {
		log.Fatal(err)
	}
	resp, _ = mn.Run(context.Background(), core.Request{Query: "inverted", TopK: 10})
	fmt.Printf("  after deleting document 0, %d matches remain\n", len(resp.Results))
	if err := mn.SaveMeta(); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// --- Part 2: chunked large objects via inter-object references. ---
	fmt.Println("== chunked large objects ==")
	st, err := mneme.Create(fs, "chunks.mn", mneme.Config{Pools: []mneme.PoolConfig{
		{Name: "chunks", Kind: mneme.PoolMedium, SegmentBytes: 8192, BufferBytes: 1 << 20},
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	st.SetRefLocator("chunks", mneme.ChunkRefLocator)

	// A "large inverted list" broken into 2 KB chunks.
	payload := make([]byte, 50_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	head, err := mneme.WriteChunked(st, "chunks", payload, 2048)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := mneme.ChunkedLen(st, head)
	fmt.Printf("wrote a %d-byte object as a linked list of 2 KB chunks (head %#x)\n", n, uint32(head))

	// Incremental retrieval: stop after 3 chunks instead of reading all.
	read := 0
	chunks := 0
	mneme.ScanChunked(st, head, func(p []byte) bool {
		read += len(p)
		chunks++
		return chunks < 3
	})
	fmt.Printf("incremental retrieval: stopped after %d chunks (%d of %d bytes)\n", chunks, read, n)

	// Incremental update: append without rewriting existing chunks.
	if _, err := mneme.AppendChunked(st, "chunks", head, make([]byte, 5000), 2048); err != nil {
		log.Fatal(err)
	}
	n, _ = mneme.ChunkedLen(st, head)
	fmt.Printf("incremental update: appended 5000 bytes; object is now %d bytes\n", n)

	// Garbage collection through the pool's reference locator.
	orphan, _ := mneme.WriteChunked(st, "chunks", make([]byte, 10_000), 2048)
	_ = orphan // drop the only reference
	freed, err := st.GC([]mneme.ObjectID{head})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GC from the live head collected %d unreachable chunks\n", freed)
}
