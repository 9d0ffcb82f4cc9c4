// Command perfbench is the repository's host wall-clock benchmark. It
// builds one workload's index from a seed, drives requests in process
// through serve.Server.Handler (JSON body in, JSON body out, no
// socket), checks the outputs, and prints every metric by name and
// unit. The last line of standard output is the result as JSON:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// wrappers or tracing. With -trace 1 a separate traced run reports the
// per-layer metrics: timing wrappers around the served index,
// Engine.TraceRun span trees, and the counters the program exports.
//
// Usage:
//
//	perfbench -workload legal-taat|tipster-sharded-zipf|cacm-nrt-ingest \
//	    -seed N -seconds S -trace 0|1
//
// It exits 1 when an output check fails and 2 on a setup error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// A run builds, opens and warms its index at least minSetups times and
// until setupBudget has gone into set-up (at most maxSetups times), so
// a short set-up is repeated often enough for a steady median; setup_s
// is the median.
const (
	minSetups   = 3
	maxSetups   = 7
	setupBudget = 5 * time.Second
)

func main() {
	name := flag.String("workload", "", "legal-taat, tipster-sharded-zipf or cacm-nrt-ingest")
	seed := flag.Int64("seed", 1, "seed for documents, query pool and arrival order")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1))
}

func newWorkload(name string, seed int64, dur time.Duration) (workload, error) {
	switch name {
	case "legal-taat":
		return newLegalTAAT(seed), nil
	case "tipster-sharded-zipf":
		return newTipsterSharded(seed), nil
	case "cacm-nrt-ingest":
		return newCACMNRT(seed, int(nrtRate*dur.Seconds())), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return code
}

func run(name string, seed int64, dur time.Duration, traced bool) int {
	w, err := newWorkload(name, seed, dur)
	if err != nil {
		return fail(2, err)
	}
	sh := w.common()
	var times []setupTimes
	var spent time.Duration
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		t, err := w.setup()
		if err != nil {
			w.close()
			return fail(2, fmt.Errorf("setup: %w", err))
		}
		times = append(times, t)
		spent += t.total()
	}
	defer w.close()
	sh.docs = nil // the heap measured next is the program's, not the inputs'
	heapMB := heapInuseMB()

	var m *metrics
	var queries []queryOut
	var ingests []ingestOut
	if traced {
		m, queries, ingests = tracedRun(w, times, dur)
	} else {
		m, queries, ingests = timedRun(w, times, dur, heapMB)
	}

	serveNow := func(idx int) queryOut { return serveQuery(handlerFor(w.served()), idx, sh.reqs.bodies[idx], nil) }
	fails := w.check(serveNow, queries, ingests)
	attempted, failed := len(queries)+len(ingests), 0
	for _, q := range queries {
		if !q.ok() {
			failed++
		}
	}
	for _, in := range ingests {
		if in.status != http.StatusOK {
			failed++
		}
	}
	report(name, m, len(fails) == 0, attempted, failed)
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "perfbench: output check failed:", f)
		}
		return 1
	}
	return 0
}

// heapInuseMB collects garbage and reads the heap in use.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func handlerFor(ix serve.Index) http.Handler {
	return serve.NewIndexes(map[string]serve.Index{"bench": ix}, serve.Defaults{TopK: topK}).Handler()
}

func sumWrites(fss []*vfs.FS) int64 {
	var n int64
	for _, fs := range fss {
		n += fs.Stats().BytesWritten
	}
	return n
}

// ingestBodies encodes one POST /v1/ingest body per doc text.
func ingestBodies(texts []string) [][]byte {
	out := make([][]byte, len(texts))
	for i, t := range texts {
		b, err := json.Marshal(map[string][]string{"docs": {t}})
		if err != nil {
			panic(err) // a string slice always encodes
		}
		out[i] = b
	}
	return out
}

// newPhase starts a phase description over handler h with one client
// per query stream and, on an ingesting workload, the ingest docs
// [from, from+n) open loop.
func newPhase(w workload, h http.Handler, streams []int, from, n int) phase {
	sh := w.common()
	// At most nproc load-generating goroutines: the open-loop sender, if any,
	// takes one, the closed-loop query clients the rest.
	clients := runtime.NumCPU()
	if sh.rate > 0 {
		clients--
	}
	streams = streams[:max(1, min(len(streams), clients))]
	p := phase{h: h, pool: sh.reqs}
	for _, c := range streams {
		p.seqs = append(p.seqs, w.sequence(c))
	}
	if sh.rate > 0 {
		p.ingest, p.rate = ingestBodies(sh.ingest[from:min(from+n, len(sh.ingest))]), sh.rate
	}
	return p
}

// timedRun is the end-to-end run: the raw index behind the handler,
// no wrappers, no tracing.
func timedRun(w workload, times []setupTimes, dur time.Duration, heapMB float64) (*metrics, []queryOut, []ingestOut) {
	sh := w.common()
	streams := make([]int, sh.clients)
	for c := range streams {
		streams[c] = c
	}
	p := newPhase(w, handlerFor(w.served()), streams, 0, int(sh.rate*dur.Seconds()))
	p.dur = dur
	writes0 := sumWrites(sh.fss)
	out := p.run()

	// The write path is the build on a batch workload and the ingest
	// stream on an NRT one.
	written, text := sh.written, sh.text
	if sh.rate > 0 {
		written, text = sumWrites(sh.fss)-writes0, 0
		for _, in := range out.ingests {
			if in.status == http.StatusOK {
				text += int64(len(sh.ingest[in.doc]))
			}
		}
	}

	req := requestMetrics(out)
	m := newMetrics()
	var setup []float64
	for _, t := range times {
		setup = append(setup, t.total().Seconds())
	}
	m.setTiming("setup_s", "s", median(setup), len(setup))
	for _, name := range []string{"query_qps", "query_p50_ms", "query_p99_ms"} {
		m.setTiming(name, req.vals[name].Unit, req.vals[name].Value, req.samples[name])
	}
	m.set("index_bytes_per_text_byte", "ratio", ratio(float64(sh.idxBytes), float64(sh.text)))
	m.set("write_bytes_per_text_byte", "ratio", ratio(float64(written), float64(text)))
	m.set("heap_inuse_mb", "MB", heapMB)
	if len(out.ingests) > 0 {
		// Printed for reading; the result line carries them only from
		// the traced run's untraced phase (see README.md).
		for _, name := range []string{"ingest_docs_per_s", "ingest_ack_p50_ms", "ingest_ack_p99_ms",
			"ingest_fail_ratio", "driver.ingest_late_ms"} {
			printMetric(name, req.vals[name], req.samples[name])
		}
	}
	printMetric("query_fail_ratio", req.vals["query_fail_ratio"], len(out.queries))
	return m, out.queries, out.ingests
}

// tracedRun is the per-layer run. Phase B serves a fixed request
// sequence through the timing wrapper with TraceRun (per shard engine
// on the sharded workload); phase A then serves the raw index for half
// the run time, one client, as the untraced reference for the tracing
// overhead and the allocation counts.
func tracedRun(w workload, times []setupTimes, dur time.Duration) (*metrics, []queryOut, []ingestOut) {
	sh := w.common()
	in := layerInputs{setups: times, indexBytes: sh.idxBytes, delta: newLayerDelta(),
		outcomes: map[string]int{}}
	served, tix := w.served(), w.traced()
	half := dur / 2
	nB := int(sh.rate * half.Seconds())

	// Phase B: traced.
	var fp *vfs.FaultPlan
	if sh.rate > 0 {
		// An empty fault plan injects nothing; it counts syncs.
		fp = vfs.NewFaultPlan(1)
		sh.fss[0].SetFaultPlan(fp)
	}
	sx, _ := served.(*shard.Index)
	last := takeSnap(served)
	in.nrtBefore = last.nrt
	writes0 := sumWrites(sh.fss)
	var traced []tracedReq
	pB := newPhase(w, handlerFor(tix), []int{0}, 0, nB)
	pB.maxQueries, pB.traced = sh.tracedN, true
	pB.after = func(q queryOut) {
		if sh.rate > 0 {
			return // NRT: snapshots are taken around the whole phase
		}
		now := takeSnap(served)
		in.delta.add(last, now)
		t := tracedReq{q: q}
		if q.slot.trace != nil {
			t.spans.addTrace(q.slot.trace)
		}
		if sx != nil && q.slot.req.Query != "" {
			t.spans, t.shardRun = shardReplay(sx, q.slot)
			now = takeSnap(served)
		}
		traced = append(traced, t)
		last = now
	}
	outB := pB.run()
	end := takeSnap(served)
	if sh.rate > 0 {
		in.delta.add(last, end)
		for _, q := range outB.queries {
			traced = append(traced, tracedReq{q: q})
		}
		sh.fss[0].SetFaultPlan(nil)
		_, _, in.syncs = fp.Counts()
		in.writesB = sumWrites(sh.fss) - writes0
		var texts []string
		for _, ig := range outB.ingests {
			if ig.status == http.StatusOK {
				in.ackedB++
			}
			texts = append(texts, sh.ingest[ig.doc])
		}
		in.tokensUS = tokensPerDoc(texts)
	}
	if ti, ok := tix.(*timedIngestIndex); ok {
		in.ingestLog = ti.log()
		in.flushStats = ti.nrt.FlushStats()
	}
	in.nrtAfter = end.nrt
	in.traced = traced

	// Phase A: untraced reference, one client. It takes client 1's
	// stream so it does not replay phase B's requests into caches
	// phase B just filled.
	pA := newPhase(w, handlerFor(served), []int{1}, nB, int(sh.rate*half.Seconds()))
	pA.dur = half
	in.procA[0] = readProc()
	outA := pA.run()
	in.procA[1] = readProc()
	for i := range outA.ingests {
		outA.ingests[i].doc += nB
	}
	in.untraced = outA

	queries := append(outB.queries, outA.queries...)
	ingests := append(outB.ingests, outA.ingests...)
	for _, q := range queries {
		in.outcomes[string(q.outcome)]++
		if q.status != http.StatusOK {
			in.non200++
		}
	}
	return layerMetrics(in), queries, ingests
}

func printMetric(name string, v metric, samples int) {
	if samples > 0 {
		fmt.Printf("  %-36s %14.6g %-6s (n=%d)\n", name, v.Value, v.Unit, samples)
	} else {
		fmt.Printf("  %-36s %14.6g %s\n", name, v.Value, v.Unit)
	}
}

// report prints every metric by name and unit, then the result line.
func report(name string, m *metrics, correct bool, attempted, failed int) {
	fmt.Printf("perfbench %s: %d attempted, %d failed, outputs correct: %v\n", name, attempted, failed, correct)
	names := make([]string, 0, len(m.vals))
	for n := range m.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		printMetric(n, m.vals[n], m.samples[n])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, m.vals})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Println(string(line))
}
