package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/resilience"
)

// lifecycleEngine is the query surface a plain Engine and an NRTEngine
// share.
type lifecycleEngine interface {
	Run(context.Context, Request) (Response, error)
	Counters() Counters
	Snapshot() Snapshot
	Close() error
}

// lifecycleTopology opens one engine of a topology over docs on a fresh
// file system and returns it with its query front (for gate access).
type lifecycleTopology struct {
	name string
	open func(t *testing.T, docs []string, opts ...Option) (lifecycleEngine, *queryFront)
}

var lifecycleTopologies = []lifecycleTopology{
	{"plain", func(t *testing.T, docs []string, opts ...Option) (lifecycleEngine, *queryFront) {
		fs := newFS()
		ds := make([]index.Doc, len(docs))
		for i, text := range docs {
			ds[i] = index.Doc{ID: uint32(i), Text: text}
		}
		if _, err := Build(fs, "plain", &SliceDocs{Docs: ds}, BuildOptions{
			Analyzer: plainAnalyzer(),
			Backends: []BackendKind{BackendMneme},
		}); err != nil {
			t.Fatal(err)
		}
		e, err := Open(fs, "plain", BackendMneme, append([]Option{WithAnalyzer(plainAnalyzer())}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return e, &e.queryFront
	}},
	{"nrt-segment+memtable", func(t *testing.T, docs []string, opts ...Option) (lifecycleEngine, *queryFront) {
		e := openLifecycleNRT(t, opts)
		half := len(docs) / 2
		if _, err := e.Ingest(docs[:half]...); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Ingest(docs[half:]...); err != nil {
			t.Fatal(err)
		}
		return e, &e.queryFront
	}},
	{"nrt-memtable", func(t *testing.T, docs []string, opts ...Option) (lifecycleEngine, *queryFront) {
		e := openLifecycleNRT(t, opts)
		if _, err := e.Ingest(docs...); err != nil {
			t.Fatal(err)
		}
		return e, &e.queryFront
	}},
}

func openLifecycleNRT(t *testing.T, opts []Option) *NRTEngine {
	t.Helper()
	e, err := OpenNRT(newFS(), "col", BackendMneme, NRTConfig{},
		append([]Option{WithAnalyzer(plainAnalyzer())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// queueCtx reports when the admission gate first consults it, which it
// does only once a request is queueing for a slot. Its Done channel is
// nil, so it never expires.
type queueCtx struct {
	context.Context
	queued chan struct{}
	once   sync.Once
}

func (c *queueCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.queued) })
	return nil
}

// gateWaits is the gate_wait_ns histogram's observation count.
func gateWaits(s Snapshot) int64 {
	for _, h := range s.Metrics.Histograms {
		if h.Name == "gate_wait_ns" {
			return h.Count
		}
	}
	return 0
}

// TestRunLifecycleContract pins the request lifecycle every topology
// shares: admission, result cache, deadline labelling, the resilience
// snapshot, and per-request accounting must behave identically on a
// plain engine and on NRT views with and without flushed segments.
func TestRunLifecycleContract(t *testing.T) {
	docs := nrtCorpus(13, 40)
	cached := Request{Query: "w1 w3", TopK: 10}
	for _, topo := range lifecycleTopologies {
		t.Run(topo.name, func(t *testing.T) {
			eng, front := topo.open(t, docs, WithMaxInFlight(1, 0), WithResultCache(8))
			defer eng.Close()
			var sum Counters
			run := func(ctx context.Context, req Request) (Response, error) {
				resp, err := eng.Run(ctx, req)
				sum = sum.Add(resp.Counters)
				return resp, err
			}

			warm, err := run(context.Background(), cached)
			if err != nil || warm.Outcome != OutcomeOK || len(warm.Results) == 0 {
				t.Fatalf("warm-up: outcome %s, %d results, err %v", warm.Outcome, len(warm.Results), err)
			}

			if err := front.gate.Acquire(nil); err != nil { // occupy the only slot
				t.Fatal(err)
			}
			shed, err := run(context.Background(), Request{Query: "w2 w5", TopK: 10})
			if shed.Outcome != OutcomeShed || !errors.Is(err, resilience.ErrShed) {
				t.Errorf("full gate: outcome %s, err %v; want shed", shed.Outcome, err)
			}
			if shed.Counters != (Counters{Shed: 1}) {
				t.Errorf("shed delta = %+v, want {Shed: 1}", shed.Counters)
			}
			hit, err := run(context.Background(), cached)
			if err != nil || hit.Outcome != OutcomeOK {
				t.Errorf("cached query behind a full gate: outcome %s, err %v; want ok", hit.Outcome, err)
			}
			if !reflect.DeepEqual(hit.Results, warm.Results) {
				t.Errorf("cached ranking differs from the evaluated one")
			}
			if hit.Counters != (Counters{Queries: 1, ResultCacheHits: 1}) {
				t.Errorf("cache-hit delta = %+v", hit.Counters)
			}
			front.gate.Release()

			expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
			defer cancel()
			for _, mode := range []Mode{ModeTAAT, ModeDAAT} {
				resp, err := run(expired, Request{Query: "w4 w6", TopK: 10, Mode: mode})
				if resp.Outcome != OutcomeDeadline {
					t.Errorf("%s expired context: outcome %s, want deadline", mode, resp.Outcome)
				}
				if !errors.Is(err, resilience.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s expired context: err %v must chain ErrDeadline and context.DeadlineExceeded", mode, err)
				}
				if resp.Counters.DeadlineHits != 1 || resp.Counters.Queries != 1 {
					t.Errorf("%s deadline delta = %+v, want one query and one deadline hit", mode, resp.Counters)
				}
			}

			snap := eng.Snapshot()
			rs := snap.Resilience
			if rs == nil {
				t.Fatal("Snapshot().Resilience is nil on a gated engine")
			}
			if rs.MaxInFlight != 1 || rs.Shed != 1 || rs.DeadlineHits != 2 {
				t.Errorf("Resilience = %+v, want MaxInFlight 1, Shed 1, DeadlineHits 2", rs)
			}
			if got := eng.Counters(); got != sum {
				t.Errorf("Counters() = %+v, per-request deltas sum to %+v", got, sum)
			}
		})

		t.Run(topo.name+"/queued", func(t *testing.T) {
			eng, front := topo.open(t, docs, WithMaxInFlight(1, time.Minute))
			defer eng.Close()
			if err := front.gate.Acquire(nil); err != nil { // occupy the only slot
				t.Fatal(err)
			}
			before := gateWaits(eng.Snapshot())
			ctx := &queueCtx{Context: context.Background(), queued: make(chan struct{})}
			done := make(chan Response, 1)
			go func() {
				resp, err := eng.Run(ctx, cached)
				if err != nil {
					t.Error(err)
				}
				done <- resp
			}()
			<-ctx.queued // the request is waiting on the full gate
			front.gate.Release()
			resp := <-done
			if resp.Outcome != OutcomeOK || resp.Counters.Queries != 1 {
				t.Errorf("admitted query: outcome %s, delta %+v", resp.Outcome, resp.Counters)
			}
			if got := gateWaits(eng.Snapshot()) - before; got != 1 {
				t.Errorf("gate_wait_ns observations += %d, want 1", got)
			}
			if got := eng.Counters(); got != resp.Counters {
				t.Errorf("Counters() = %+v, want the one request's delta %+v", got, resp.Counters)
			}
		})
	}
}
