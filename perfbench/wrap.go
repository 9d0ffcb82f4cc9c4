package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// slotKey carries a *slot in a search request's context from the
// load generator, through the serve handler, to the timing wrapper.
type slotKey struct{}

// slot is what the wrapper learned about one search request.
type slot struct {
	req   core.Request
	run   time.Duration // the wrapped Run (or TraceRun) call
	trace *obs.Trace    // set when the wrapper traced a single engine
	// shardHit[i] reports whether shard i answered its sub-query from
	// its result cache (sharded index only).
	shardHit []bool
}

// timedIndex wraps the serve.Index handed to serve.NewIndexes. It
// times every Run whose request carries a slot and, over a single
// engine, evaluates it through Engine.TraceRun so the request's span
// tree is kept. It is used only by the traced run; timed runs serve the
// raw index.
type timedIndex struct {
	serve.Index
	eng    *core.Engine // single engine: TraceRun per request
	shards *shard.Index // sharded: per-shard result-cache hits recorded
}

func (t *timedIndex) Run(ctx context.Context, req core.Request) (core.Response, error) {
	sl, _ := ctx.Value(slotKey{}).(*slot)
	var engs []*core.Engine
	var before []int64
	if t.shards != nil && sl != nil {
		engs = t.shards.Engines()
		before = make([]int64, len(engs))
		for i, e := range engs {
			before[i] = e.Counters().ResultCacheHits
		}
	}
	t0 := time.Now()
	var (
		resp core.Response
		err  error
		tr   *obs.Trace
	)
	if t.eng != nil && sl != nil {
		resp, tr, err = t.eng.TraceRun(req)
	} else {
		resp, err = t.Index.Run(ctx, req)
	}
	d := time.Since(t0)
	if sl != nil {
		sl.req, sl.run, sl.trace = req, d, tr
		for i, e := range engs {
			sl.shardHit = append(sl.shardHit, e.Counters().ResultCacheHits > before[i])
		}
	}
	return resp, err
}

// ingestCall is one wrapped Ingest: its duration and whether a memtable
// flush or a segment compaction ran inside it.
type ingestCall struct {
	dur                time.Duration
	flushed, compacted bool
}

// timedIngestIndex is timedIndex over an NRT engine: it also serves
// POST /v1/ingest and logs every Ingest call. Ingest carries no
// context, so calls are logged in order rather than per request.
type timedIngestIndex struct {
	*timedIndex
	nrt *core.NRTEngine

	mu    sync.Mutex
	calls []ingestCall
}

func (t *timedIngestIndex) Ingest(texts ...string) (uint32, error) {
	before := t.nrt.Snapshot().NRT
	t0 := time.Now()
	first, err := t.nrt.Ingest(texts...)
	d := time.Since(t0)
	after := t.nrt.Snapshot().NRT
	t.mu.Lock()
	t.calls = append(t.calls, ingestCall{
		dur:       d,
		flushed:   after.Flushes > before.Flushes,
		compacted: after.Compactions > before.Compactions,
	})
	t.mu.Unlock()
	return first, err
}

func (t *timedIngestIndex) log() []ingestCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]ingestCall(nil), t.calls...)
}
