package experiments

import (
	"fmt"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/mneme"
	"repro/internal/vfs"
)

// Ablations isolate the design decisions DESIGN.md calls out: the
// three-pool partition, the reservation optimization, and the
// segment-size-equals-transfer-block choice.

// buildVariant builds a Mneme-only copy of a collection under an
// alternate store configuration, on its own file system.
func (l *Lab) buildVariant(colName string, cfg *mneme.Config, chunkBytes int) (*Built, error) {
	col, ok := collection.ByName(colName, l.Scale)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown collection %q", colName)
	}
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: l.OSCacheBytes})
	stream := col.Stream()
	// Give every pool a generous build-time buffer so allocation does
	// not shadow-save each segment per object; measurement runs re-open
	// with the plan under test.
	build := *cfg
	build.Pools = append([]mneme.PoolConfig(nil), cfg.Pools...)
	for i := range build.Pools {
		if build.Pools[i].BufferBytes <= 0 {
			build.Pools[i].BufferBytes = 1 << 20
		}
	}
	stats, err := core.Build(fs, col.Name, stream, core.BuildOptions{
		Analyzer:        analyzer(),
		Backends:        []core.BackendKind{core.BackendMneme},
		MnemeConfig:     &build,
		ChunkLargeLists: chunkBytes,
	})
	if err != nil {
		return nil, err
	}
	b := &Built{Col: col, FS: fs, Stats: stats, TextBytes: stream.TextBytes()}
	b.MaxList = maxListBytesMneme(fs, col.Name)
	return b, nil
}

// maxListBytesMneme mirrors maxListBytes for Mneme-only builds.
func maxListBytesMneme(fs *vfs.FS, name string) int64 {
	e, err := core.Open(fs, name, core.BackendMneme, core.WithAnalyzer(analyzer()))
	if err != nil {
		return 0
	}
	defer e.Close()
	var max int64
	e.Dictionary().Range(func(entry *lexicon.Entry) bool {
		if int64(entry.ListBytes) > max {
			max = int64(entry.ListBytes)
		}
		return true
	})
	return max
}

// runMneme executes one measured Mneme batch run with explicit options.
func (l *Lab) runMneme(b *Built, qsIdx int, plan core.BufferPlan, disableReserve bool, chunkBytes int) (*RunResult, error) {
	qs := b.Col.QuerySets[qsIdx]
	queries := b.Col.GenQueries(qs)
	opts := []core.Option{
		core.WithAnalyzer(analyzer()),
		core.WithPlan(plan),
		core.WithAccessLog(),
		core.WithChunking(chunkBytes),
	}
	if disableReserve {
		opts = append(opts, core.WithoutReserve())
	}
	eng, err := core.Open(b.FS, b.Col.Name, core.BackendMneme, opts...)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	b.FS.Chill()
	eng.ResetCounters()
	eng.Backend().ResetBufferStats()
	before := b.FS.Stats()
	start := time.Now()
	for _, q := range queries {
		if _, err := eng.Run(nil, core.Request{Query: q.Text}); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	delta := b.FS.Stats().Sub(before)
	c := eng.Counters()
	r := &RunResult{
		Collection: b.Col.Name,
		QuerySet:   qs.Name,
		Sys:        SysMnemeCache,
		Queries:    len(queries),
		Lookups:    c.Lookups,
		Postings:   c.Postings,
		IO:         delta,
		SysIO:      l.Model.SystemIO(delta),
		UserCPU:    l.Model.UserCPU(c.Postings, len(queries)),
		MeasuredNS: elapsed.Nanoseconds(),
		Buffers:    eng.Backend().BufferStats(),
	}
	r.Wall = r.UserCPU + r.SysIO
	return r, nil
}

// aggHitRate returns overall refs, hits, and rate across all pools.
func aggHitRate(r *RunResult) (int64, int64, float64) {
	var refs, hits int64
	for _, bs := range r.Buffers {
		refs += bs.Refs
		hits += bs.Hits
	}
	rate := 0.0
	if refs > 0 {
		rate = float64(hits) / float64(refs)
	}
	return refs, hits, rate
}

// AblationReserve measures the reservation optimization: the paper's
// "slight optimization" to LRU that pins already-resident objects named
// by the query tree before evaluation.
func (l *Lab) AblationReserve(colName string, qsIdx int) (*Table, error) {
	b, err := l.Collection(colName)
	if err != nil {
		return nil, err
	}
	plan := PlanFor(b)
	t := &Table{
		Title:  fmt.Sprintf("Ablation: LRU reservation optimization (%s, query set %s)", colName, b.Col.QuerySets[qsIdx].Name),
		Header: []string{"Variant", "Refs", "Hits", "HitRate", "I", "B(KB)", "Sys+I/O(s)"},
	}
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"LRU + reserve", false}, {"plain LRU", true}} {
		r, err := l.runMneme(b, qsIdx, plan, variant.disable, 0)
		if err != nil {
			return nil, err
		}
		refs, hits, rate := aggHitRate(r)
		t.Rows = append(t.Rows, []string{
			variant.name,
			fmt.Sprintf("%d", refs),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%d", r.IO.DiskReads),
			kb(r.IO.BytesRead),
			secs(r.SysIO),
		})
	}
	return t, nil
}

// AblationSinglePool compares the paper's three-pool partition against
// a single unpartitioned pool given the same total buffer budget.
func (l *Lab) AblationSinglePool(colName string, qsIdx int) (*Table, error) {
	three, err := l.Collection(colName)
	if err != nil {
		return nil, err
	}
	plan := PlanFor(three)
	total := plan.SmallBytes + plan.MediumBytes + plan.LargeBytes

	singleCfg := core.SinglePoolConfig(total)
	single, err := l.buildVariant(colName, &singleCfg, 0)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: fmt.Sprintf("Ablation: three-pool partition vs single pool (%s, query set %s, equal buffer budget %d KB)",
			colName, three.Col.QuerySets[qsIdx].Name, total/1024),
		Header: []string{"Layout", "StoreKB", "Refs", "Hits", "HitRate", "I", "B(KB)", "Sys+I/O(s)"},
	}
	r3, err := l.runMneme(three, qsIdx, plan, false, 0)
	if err != nil {
		return nil, err
	}
	r1, err := l.runMneme(single, qsIdx, core.BufferPlan{MediumBytes: total}, false, 0)
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		b    *Built
		r    *RunResult
	}{{"three pools", three, r3}, {"single pool", single, r1}} {
		refs, hits, rate := aggHitRate(row.r)
		t.Rows = append(t.Rows, []string{
			row.name,
			kb(row.b.Stats.MnemeBytes),
			fmt.Sprintf("%d", refs),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%d", row.r.IO.DiskReads),
			kb(row.r.IO.BytesRead),
			secs(row.r.SysIO),
		})
	}
	return t, nil
}

// AblationSegmentSize sweeps the medium pool's physical segment size
// around the paper's choice of the 8 Kbyte disk transfer block.
func (l *Lab) AblationSegmentSize(colName string, qsIdx int, sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{2048, 4096, 8192, 16384, 32768}
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: medium-pool physical segment size (%s)", colName),
		Header: []string{"SegmentBytes", "StoreKB", "I", "B(KB)", "MdHitRate", "Sys+I/O(s)"},
		Note:   "The paper picks 8192 = the disk transfer block: larger segments drag in unused objects, smaller ones waste the block transfer.",
	}
	for _, seg := range sizes {
		cfg := mneme.Config{Pools: []mneme.PoolConfig{
			{Name: core.PoolNameSmall, Kind: mneme.PoolSmall, SegmentBytes: 4096, SlotBytes: 16},
			{Name: core.PoolNameMedium, Kind: mneme.PoolMedium, SegmentBytes: seg},
			{Name: core.PoolNameLarge, Kind: mneme.PoolLarge},
		}}
		b, err := l.buildVariant(colName, &cfg, 0)
		if err != nil {
			return nil, err
		}
		plan := PlanFor(b)
		r, err := l.runMneme(b, qsIdx, plan, false, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", seg),
			kb(b.Stats.MnemeBytes),
			fmt.Sprintf("%d", r.IO.DiskReads),
			kb(r.IO.BytesRead),
			fmt.Sprintf("%.2f", r.Buffers["medium"].HitRate()),
			secs(r.SysIO),
		})
	}
	return t, nil
}

// AblationBufferPolicy compares replacement policies for the large
// object buffer — the extensibility hook the paper highlights ("How
// these operations are implemented determines the policies used to
// manage the buffer"); the integration settled on LRU plus reservation.
func (l *Lab) AblationBufferPolicy(colName string, qsIdx int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: buffer replacement policy (%s)", colName),
		Header: []string{"Policy", "Refs", "Hits", "HitRate", "I", "B(KB)", "Sys+I/O(s)"},
	}
	for _, policy := range []string{"lru", "fifo", "clock"} {
		cfg := core.MnemeConfig(core.BufferPlan{})
		for i := range cfg.Pools {
			cfg.Pools[i].Policy = policy
		}
		b, err := l.buildVariant(colName, &cfg, 0)
		if err != nil {
			return nil, err
		}
		r, err := l.runMneme(b, qsIdx, PlanFor(b), false, 0)
		if err != nil {
			return nil, err
		}
		refs, hits, rate := aggHitRate(r)
		t.Rows = append(t.Rows, []string{
			policy,
			fmt.Sprintf("%d", refs),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%d", r.IO.DiskReads),
			kb(r.IO.BytesRead),
			secs(r.SysIO),
		})
	}
	return t, nil
}

// AblationChunkedLists compares whole large objects against chunked
// storage (paper §6: linked lists of pieces enabling incremental update
// and retrieval), measuring the read-path cost of the indirection.
func (l *Lab) AblationChunkedLists(colName string, qsIdx int, chunkBytes int) (*Table, error) {
	if chunkBytes <= 0 {
		chunkBytes = 4092 // chunk + 4-byte next-id header fills a medium slot
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: whole vs chunked large lists (%s, %d-byte chunks)", colName, chunkBytes),
		Header: []string{"Storage", "StoreKB", "Lookups", "I", "B(KB)", "Sys+I/O(s)"},
		Note:   "Chunking trades extra per-chunk accesses on reads for incremental update and retrieval.",
	}
	for _, variant := range []struct {
		name  string
		chunk int
	}{{"whole objects", 0}, {"chunked", chunkBytes}} {
		cfg := core.MnemeConfig(core.BufferPlan{})
		b, err := l.buildVariant(colName, &cfg, variant.chunk)
		if err != nil {
			return nil, err
		}
		r, err := l.runMneme(b, qsIdx, PlanFor(b), false, variant.chunk)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			variant.name,
			kb(b.Stats.MnemeBytes),
			fmt.Sprintf("%d", r.Lookups),
			fmt.Sprintf("%d", r.IO.DiskReads),
			kb(r.IO.BytesRead),
			secs(r.SysIO),
		})
	}
	return t, nil
}
