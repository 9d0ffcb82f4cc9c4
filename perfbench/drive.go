package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
)

// queryPool holds a workload's queries as core.Requests and as the
// pre-encoded POST /v1/search bodies the load generator sends, so encoding is
// not timed.
type queryPool struct {
	reqs   []core.Request
	bodies [][]byte
}

func newQueryPool(reqs []core.Request) *queryPool {
	p := &queryPool{reqs: reqs, bodies: make([][]byte, len(reqs))}
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			panic(err) // a core.Request always encodes
		}
		p.bodies[i] = b
	}
	return p
}

// queryOut is one served search request as the load generator saw it.
type queryOut struct {
	idx      int
	lat      time.Duration
	status   int
	outcome  core.Outcome
	results  []core.Result
	counters core.Counters
	bytes    int
	slot     *slot
}

// ok reports whether the request counts as a success: HTTP 200 and a
// complete ranking. Partial, shed, deadline, degraded and breaker
// outcomes all count as failed.
func (q queryOut) ok() bool { return q.status == http.StatusOK && q.outcome == core.OutcomeOK }

// serveQuery sends one pre-encoded search body through the handler,
// in process, and decodes the reply. Only ServeHTTP is timed.
func serveQuery(h http.Handler, idx int, body []byte, sl *slot) queryOut {
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	if sl != nil {
		req = req.WithContext(context.WithValue(req.Context(), slotKey{}, sl))
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(t0)
	out := queryOut{idx: idx, lat: lat, status: rec.Code, bytes: rec.Body.Len(), slot: sl}
	var reply struct {
		Results  []core.Result `json:"results"`
		Counters core.Counters `json:"counters"`
		Outcome  core.Outcome  `json:"outcome"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err == nil {
		out.results, out.counters, out.outcome = reply.Results, reply.Counters, reply.Outcome
	}
	return out
}

// ingestOut is one acknowledged (or failed) POST /v1/ingest.
type ingestOut struct {
	doc     int           // index into the workload's ingest docs
	ack     time.Duration // from when the doc was due to its ack
	late    time.Duration // how late the sender sent it
	status  int
	firstID uint32
}

// ingestDoc sends one document through the handler.
func ingestDoc(h http.Handler, body []byte) (int, uint32) {
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var reply struct {
		FirstID uint32 `json:"first_id"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &reply) // a non-200 body has no first_id; the status says so
	return rec.Code, reply.FirstID
}

// phase describes one measured stretch of traffic.
type phase struct {
	h http.Handler
	// seqs holds one query-index generator per closed-loop client.
	seqs []func() int
	pool *queryPool
	dur  time.Duration // closed loop stops after this (see maxQueries / ingest)
	// maxQueries, when positive, stops a single client after that many
	// requests — a fixed request sequence.
	maxQueries int
	// ingest, when non-empty, runs an open-loop sender at rate docs/s
	// over these bodies; the phase ends when the last is acknowledged.
	ingest [][]byte
	rate   float64
	// traced gives every query its own slot for the wrapper to fill.
	traced bool
	// after, when set, runs on the client goroutine after each query.
	after func(q queryOut)
}

type phaseOut struct {
	queries []queryOut
	ingests []ingestOut
	elapsed time.Duration
}

// run drives the phase: one goroutine per closed-loop client plus, if
// the phase ingests, one open-loop sender. Each goroutine has at most
// one request in flight. It returns once every goroutine has ended.
func (p phase) run() phaseOut {
	start := time.Now()
	until := start.Add(p.dur)
	var stop sync.WaitGroup
	done := make(chan struct{})
	var ingests []ingestOut
	if len(p.ingest) > 0 {
		stop.Add(1)
		go func() {
			defer stop.Done()
			defer close(done)
			ingests = openLoop(p.h, p.ingest, p.rate, time.Now())
		}()
	}
	per := make([][]queryOut, len(p.seqs))
	var wg sync.WaitGroup
	for c := range p.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			next := p.seqs[c]
			for n := 0; ; n++ {
				if p.maxQueries > 0 && n >= p.maxQueries {
					return
				}
				if p.maxQueries == 0 && len(p.ingest) == 0 && !time.Now().Before(until) {
					return
				}
				if len(p.ingest) > 0 {
					select {
					case <-done:
						return
					default:
					}
				}
				idx := next()
				var sl *slot
				if p.traced {
					sl = &slot{}
				}
				q := serveQuery(p.h, idx, p.pool.bodies[idx], sl)
				if p.after != nil {
					p.after(q)
				}
				per[c] = append(per[c], q)
			}
		}(c)
	}
	wg.Wait()
	stop.Wait()
	out := phaseOut{ingests: ingests, elapsed: time.Since(start)}
	for _, qs := range per {
		out.queries = append(out.queries, qs...)
	}
	return out
}

// openLoop sends bodies[i] when it falls due at start + i/rate, one
// request in flight, and times each ack from its due time, so a stall
// is charged to every document queued behind it.
func openLoop(h http.Handler, bodies [][]byte, rate float64, start time.Time) []ingestOut {
	out := make([]ingestOut, 0, len(bodies))
	interval := time.Duration(float64(time.Second) / rate)
	for i, b := range bodies {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		status, first := ingestDoc(h, b)
		out = append(out, ingestOut{doc: i, ack: time.Since(due), late: late, status: status, firstID: first})
	}
	return out
}

// cycle returns a generator walking order round and round.
func cycle(order []int) func() int {
	i := 0
	return func() int {
		v := order[i%len(order)]
		i++
		return v
	}
}
