package main

import (
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/mneme"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/vfs"
)

// counterSnap is the slice of an index's exported counters the
// per-layer metrics difference across a phase.
type counterSnap struct {
	io     vfs.Stats
	bufs   map[string]mneme.BufferStats // keyed as Snapshot keys them
	cache  core.CacheStats
	hedged int64
	nrt    core.NRTStats
}

func takeSnap(ix serve.Index) counterSnap {
	s := ix.Snapshot()
	c := counterSnap{io: s.IO, bufs: s.Buffers}
	if s.Cache != nil {
		c.cache = *s.Cache
	}
	if s.Sharding != nil {
		c.hedged = s.Sharding.Hedged
	}
	if s.NRT != nil {
		c.nrt = *s.NRT
	}
	return c
}

// layerDelta accumulates counter movement over the parts of a phase
// that belong to the served requests (a replay's own movement is left
// out).
type layerDelta struct {
	io     vfs.Stats
	pools  map[string]mneme.BufferStats // keyed by pool: small, medium, large
	cache  core.CacheStats
	hedged int64
}

func newLayerDelta() *layerDelta {
	return &layerDelta{pools: map[string]mneme.BufferStats{}}
}

// add folds b-a into d. Buffer pools are matched by their full key, so
// a segment that an NRT flush or compaction created or dropped between
// the snapshots contributes nothing rather than a negative count.
func (d *layerDelta) add(a, b counterSnap) {
	d.io = d.io.Add(b.io.Sub(a.io))
	for k, bs := range b.bufs {
		as, ok := a.bufs[k]
		if !ok {
			continue
		}
		pool := k[strings.LastIndexByte(k, '/')+1:]
		p := d.pools[pool]
		p.Refs += bs.Refs - as.Refs
		p.Hits += bs.Hits - as.Hits
		d.pools[pool] = p
	}
	d.cache.ResultHits += b.cache.ResultHits - a.cache.ResultHits
	d.cache.ResultMisses += b.cache.ResultMisses - a.cache.ResultMisses
	d.cache.BlockHits += b.cache.BlockHits - a.cache.BlockHits
	d.cache.BlockMisses += b.cache.BlockMisses - a.cache.BlockMisses
	d.cache.BlockEvictions += b.cache.BlockEvictions - a.cache.BlockEvictions
	d.hedged += b.hedged - a.hedged
}

// spanSums totals span trees by stage: self time, span count and
// fault-in bytes.
type spanSums struct {
	selfNS  map[obs.Stage]int64
	spans   map[obs.Stage]int64
	faultIn int64
}

func (s *spanSums) addTrace(tr *obs.Trace) {
	for st, tot := range tr.StageTotals() {
		s.addStage(st, tot.SelfRealNS, tot.Spans)
		s.faultIn += tot.Counts[obs.EvFaultInBytes]
	}
}

func (s *spanSums) addStage(st obs.Stage, selfNS, spans int64) {
	if s.selfNS == nil {
		s.selfNS, s.spans = map[obs.Stage]int64{}, map[obs.Stage]int64{}
	}
	s.selfNS[st] += selfNS
	s.spans[st] += spans
}

// tracedReq is what the traced phase keeps per request.
type tracedReq struct {
	q        queryOut
	spans    spanSums
	shardRun []time.Duration // per-shard replay durations (sharded)
}

// shardReplay replays a served request on every shard engine with
// Engine.TraceRun, right after the coordinator answered it, to split
// the request's time into per-shard work and coordinator work. A shard
// that answered from its result cache replays as a cache hit; one that
// evaluated replays with a vanishing score floor, which skips the
// result cache and cannot change the ranking.
func shardReplay(ix *shard.Index, sl *slot) (spanSums, []time.Duration) {
	var sums spanSums
	var runs []time.Duration
	for i, e := range ix.Engines() {
		req := sl.req
		if i < len(sl.shardHit) && !sl.shardHit[i] {
			req.MinScore = math.SmallestNonzeroFloat64
		}
		t0 := time.Now()
		_, tr, _ := e.TraceRun(req) // an error here was already reported by the served request
		runs = append(runs, time.Since(t0))
		sums.addTrace(tr)
	}
	return sums, runs
}

// procSnap is a runtime.MemStats reading.
type procSnap struct{ mallocs, bytes, pauseNS uint64 }

func readProc() procSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNS: m.PauseTotalNs}
}

// layerInputs gathers everything the per-layer report is computed from.
type layerInputs struct {
	setups     []setupTimes
	indexBytes int64
	traced     []tracedReq
	untraced   phaseOut
	delta      *layerDelta
	procA      [2]procSnap
	nrtBefore  core.NRTStats
	nrtAfter   core.NRTStats
	ingestLog  []ingestCall
	flushStats []core.FlushStat
	syncs      int64
	writesB    int64 // bytes written during the traced phase
	ackedB     int   // docs acked during the traced phase
	tokensUS   float64
	outcomes   map[string]int
	non200     int
}

// layerMetrics computes every per-layer metric. Metrics of a layer the
// workload does not cross read 0.
func layerMetrics(in layerInputs) *metrics {
	m := newMetrics()
	n := float64(len(in.traced))

	// serve
	var lat, self, runs, respBytes []float64
	var ctr core.Counters
	var sums spanSums
	var coord, skew []float64
	var parse []float64
	for _, t := range in.traced {
		sl := t.q.slot
		lat = append(lat, ms(t.q.lat))
		self = append(self, us(t.q.lat-sl.run))
		runs = append(runs, ms(sl.run))
		respBytes = append(respBytes, float64(t.q.bytes))
		ctr = ctr.Add(t.q.counters)
		for st, ns := range t.spans.selfNS {
			sums.addStage(st, ns, t.spans.spans[st])
		}
		sums.faultIn += t.spans.faultIn
		if len(t.shardRun) > 0 {
			var slow, fast time.Duration
			for i, d := range t.shardRun {
				if i == 0 || d > slow {
					slow = d
				}
				if i == 0 || d < fast {
					fast = d
				}
			}
			coord = append(coord, ms(sl.run-slow))
			skew = append(skew, ratio(float64(slow), float64(fast)))
		}
		t0 := time.Now()
		_, _ = inference.Parse(sl.req.Query) // the served request already parsed it
		parse = append(parse, us(time.Since(t0)))
	}
	m.setTiming("serve.self_us", "us", median(self), len(self))
	m.set("serve.response_bytes", "bytes", ratio(sum(respBytes), n))

	// core
	m.setTiming("core.run_p50_ms", "ms", median(runs), len(runs))
	m.setTiming("core.run_p99_ms", "ms", quantile(runs, 0.99), len(runs))
	rp := float64(in.delta.cache.ResultHits + in.delta.cache.ResultMisses)
	bp := float64(in.delta.cache.BlockHits + in.delta.cache.BlockMisses)
	m.set("core.result_hit_ratio", "ratio", ratio(float64(in.delta.cache.ResultHits), rp))
	m.set("core.result_probes", "count", rp)
	m.set("core.block_hit_ratio", "ratio", ratio(float64(in.delta.cache.BlockHits), bp))
	m.set("core.block_probes", "count", bp)
	m.set("core.block_evictions_per_query", "count", ratio(float64(in.delta.cache.BlockEvictions), n))
	for _, o := range []core.Outcome{core.OutcomeOK, core.OutcomeDegraded, core.OutcomeDeadline,
		core.OutcomeShed, core.OutcomePartial, core.OutcomeError} {
		m.set("core.outcomes."+string(o), "count", float64(in.outcomes[string(o)]))
	}
	m.set("core.http_non200", "count", float64(in.non200))

	// shard
	m.setTiming("shard.coordinator_ms", "ms", median(coord), len(coord))
	m.set("shard.skew_ratio", "ratio", median(skew))
	m.set("shard.hedges_per_query", "count", ratio(float64(in.delta.hedged), n))

	// inference, lexicon, postings, mneme (spans and counters)
	m.setTiming("inference.parse_us", "us", median(parse), len(parse))
	m.set("inference.score_ms", "ms", ratio(float64(sums.selfNS[obs.StageScore])/1e6, n))
	m.set("inference.prune_ms", "ms", ratio(float64(sums.selfNS[obs.StagePrune])/1e6, n))
	m.set("lexicon.lookup_us", "us", ratio(float64(sums.selfNS[obs.StageLexicon])/1e3, float64(sums.spans[obs.StageLexicon])))
	m.set("lexicon.lookups_per_query", "count", ratio(float64(ctr.Lookups), n))
	m.set("postings.decoded_per_query", "count", ratio(float64(ctr.Postings), n))
	m.set("postings.bytes_fetched_per_query", "bytes", ratio(float64(ctr.BytesFetched), n))
	m.set("postings.skipped_per_query", "count", ratio(float64(ctr.PostingsSkipped), n))
	m.set("postings.blocks_skipped_per_query", "count", ratio(float64(ctr.BlocksSkipped), n))
	m.set("mneme.fetch_ms", "ms", ratio(float64(sums.selfNS[obs.StageFetch])/1e6, n))
	m.set("mneme.fault_in_ms", "ms", ratio(float64(sums.selfNS[obs.StageFaultIn])/1e6, n))
	m.set("mneme.fault_in_bytes_per_query", "bytes", ratio(float64(sums.faultIn), n))
	for _, pool := range []string{"small", "medium", "large"} {
		p := in.delta.pools[pool]
		m.set("mneme.hit_ratio."+pool, "ratio", ratio(float64(p.Hits), float64(p.Refs)))
		m.set("mneme.refs_per_query."+pool, "count", ratio(float64(p.Refs), n))
	}

	// vfs
	io := in.delta.io
	m.set("vfs.file_accesses_per_lookup", "count", ratio(float64(io.FileAccesses), float64(ctr.Lookups)))
	m.set("vfs.os_cache_hit_ratio", "ratio", ratio(float64(io.CacheHits), float64(io.CacheHits+io.DiskReads)))
	m.set("vfs.syncs_per_ingest", "count", ratio(float64(in.syncs), float64(in.ackedB)))
	m.set("vfs.bytes_written_per_doc", "bytes", ratio(float64(in.writesB), float64(in.ackedB)))

	// textproc and the NRT write path
	m.set("textproc.tokens_us_per_doc", "us", in.tokensUS)
	var plain, flush, compact []float64
	for _, c := range in.ingestLog {
		switch {
		case c.compacted:
			compact = append(compact, ms(c.dur))
		case c.flushed:
			flush = append(flush, ms(c.dur))
		default:
			plain = append(plain, us(c.dur))
		}
	}
	m.setTiming("core.nrt.ingest_us", "us", median(plain), len(plain))
	m.set("core.nrt.flush_stall_count", "count", float64(len(flush)))
	m.set("core.nrt.flush_stall_p50_ms", "ms", median(flush))
	m.set("core.nrt.flush_stall_max_ms", "ms", maxOf(flush))
	m.set("core.nrt.compact_stall_count", "count", float64(len(compact)))
	m.set("core.nrt.compact_stall_p50_ms", "ms", median(compact))
	m.set("core.nrt.compact_stall_max_ms", "ms", maxOf(compact))
	m.set("core.nrt.flushes", "count", float64(in.nrtAfter.Flushes-in.nrtBefore.Flushes))
	m.set("core.nrt.compactions", "count", float64(in.nrtAfter.Compactions-in.nrtBefore.Compactions))
	m.set("core.nrt.segments_end", "count", float64(len(in.nrtAfter.Segments)))
	var pause int64
	for _, f := range in.flushStats {
		pause += f.PauseIO.BytesRead + f.PauseIO.BytesWritten
	}
	m.set("core.nrt.pause_io_bytes", "bytes", float64(pause))

	// index (set-up)
	var build, open, warmS []float64
	for _, s := range in.setups {
		build = append(build, s.build.Seconds())
		open = append(open, s.open.Seconds())
		warmS = append(warmS, s.warm.Seconds())
	}
	m.setTiming("index.build_s", "s", median(build), len(build))
	m.setTiming("core.open_s", "s", median(open), len(open))
	m.setTiming("core.warm_s", "s", median(warmS), len(warmS))
	m.set("index.bytes", "bytes", float64(in.indexBytes))

	// process (untraced phase)
	qa := float64(len(in.untraced.queries))
	m.set("process.alloc_bytes_per_query", "bytes", ratio(float64(in.procA[1].bytes-in.procA[0].bytes), qa))
	m.set("process.allocs_per_query", "count", ratio(float64(in.procA[1].mallocs-in.procA[0].mallocs), qa))
	m.set("process.gc_pause_ms", "ms", float64(in.procA[1].pauseNS-in.procA[0].pauseNS)/1e6)

	// load generator and the untraced phase's request-level figures
	e := requestMetrics(in.untraced)
	for _, name := range []string{"query_fail_ratio", "ingest_docs_per_s", "ingest_ack_p50_ms",
		"ingest_ack_p99_ms", "ingest_fail_ratio", "driver.ingest_late_ms"} {
		m.setTiming(name, e.vals[name].Unit, e.vals[name].Value, e.samples[name])
	}
	var untracedLat []float64
	for _, q := range in.untraced.queries {
		untracedLat = append(untracedLat, ms(q.lat))
	}
	m.set("driver.tracing_overhead_ratio", "ratio", ratio(median(lat), median(untracedLat)))
	return m
}

// requestMetrics computes the request-level figures of one phase.
func requestMetrics(p phaseOut) *metrics {
	m := newMetrics()
	var lat []float64
	okQ, failQ := 0, 0
	for _, q := range p.queries {
		lat = append(lat, ms(q.lat))
		if q.ok() {
			okQ++
		} else {
			failQ++
		}
	}
	secs := p.elapsed.Seconds()
	m.set("query_qps", "1/s", ratio(float64(okQ), secs))
	m.setTiming("query_p50_ms", "ms", median(lat), len(lat))
	m.setTiming("query_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	m.set("query_fail_ratio", "ratio", ratio(float64(failQ), float64(len(p.queries))))
	var ack, late []float64
	okI, failI := 0, 0
	for _, in := range p.ingests {
		ack = append(ack, ms(in.ack))
		late = append(late, ms(in.late))
		if in.status == 200 {
			okI++
		} else {
			failI++
		}
	}
	m.set("ingest_docs_per_s", "1/s", ratio(float64(okI), secs))
	m.setTiming("ingest_ack_p50_ms", "ms", median(ack), len(ack))
	m.setTiming("ingest_ack_p99_ms", "ms", quantile(ack, 0.99), len(ack))
	m.set("ingest_fail_ratio", "ratio", ratio(float64(failI), float64(len(p.ingests))))
	m.setTiming("driver.ingest_late_ms", "ms", quantile(late, 0.99), len(late))
	return m
}

// tokensPerDoc times Analyzer.Tokens over texts, in microseconds per doc.
func tokensPerDoc(texts []string) float64 {
	if len(texts) == 0 {
		return 0
	}
	an := analyzer()
	t0 := time.Now()
	for _, t := range texts {
		_ = an.Tokens(t)
	}
	return us(time.Since(t0)) / float64(len(texts))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
