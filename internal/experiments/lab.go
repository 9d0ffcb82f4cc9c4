// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): collection statistics (Table 1), buffer sizing
// (Table 2), wall-clock and system+I/O times (Tables 3-4), I/O
// statistics (Table 5), buffer hit rates (Table 6), the inverted-list
// size distribution (Figure 1), the access-frequency-by-size profile
// (Figure 2), and the buffer-size sweep (Figure 3) — plus ablations of
// the design decisions the integration made.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/mneme"
	"repro/internal/shard"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// System enumerates the three measured configurations of Table 3.
type System uint8

const (
	// SysBTree is the original custom B-tree version.
	SysBTree System = iota + 1
	// SysMnemeNoCache is Mneme with all record buffers disabled.
	SysMnemeNoCache
	// SysMnemeCache is Mneme with the Table 2 buffer plan.
	SysMnemeCache
)

// String names the system as the paper's tables do.
func (s System) String() string {
	switch s {
	case SysBTree:
		return "B-Tree"
	case SysMnemeNoCache:
		return "Mneme, No Cache"
	case SysMnemeCache:
		return "Mneme, Cache"
	}
	return "?"
}

// Systems lists the measured configurations in paper column order.
var Systems = []System{SysBTree, SysMnemeNoCache, SysMnemeCache}

// Lab builds collections once and runs measured query batches. The
// simulated machine: 8 Kbyte disk transfer blocks and an OS file-system
// buffer cache sized so that — as in the paper — the two smaller
// collections' working sets fit in it while the TIPSTER-scale ones do
// not.
type Lab struct {
	// Scale multiplies collection document counts (1.0 = default).
	Scale float64
	// OSCacheBytes sizes the simulated ULTRIX buffer cache.
	OSCacheBytes int64
	// Model converts I/O counters into 1993-hardware time estimates.
	Model vfs.TimeModel
	// BenchTopK is the ranking depth of the bench mode's DAAT rows —
	// the k that MaxScore pruning prunes against.
	BenchTopK int

	mu      sync.Mutex
	cols    map[string]*Built
	chunked map[string]*Built
	sharded map[string]*ShardedBuilt
	runs    map[string]*RunResult
}

// Built is a collection constructed under the lab's file system.
type Built struct {
	Col       collection.PaperCollection
	FS        *vfs.FS
	Stats     *core.BuildStats
	TextBytes int64
	// MaxList is the largest inverted-list record in bytes, the input
	// to the Table 2 large-buffer heuristic.
	MaxList int64
}

// DefaultOSCache is the lab's simulated file-system cache size.
const DefaultOSCache = 512 << 10

// DefaultBenchTopK is the bench mode's default ranking depth.
const DefaultBenchTopK = 10

// ChunkPayloadBytes is the chunk payload size of the lab's chunked
// collection variants (one medium segment's worth of record bytes).
const ChunkPayloadBytes = 4096

// NewLab creates a lab at the given collection scale.
func NewLab(scale float64) *Lab {
	return &Lab{
		Scale:        scale,
		OSCacheBytes: DefaultOSCache,
		Model:        vfs.Model1993(),
		BenchTopK:    DefaultBenchTopK,
		cols:         make(map[string]*Built),
		chunked:      make(map[string]*Built),
		sharded:      make(map[string]*ShardedBuilt),
		runs:         make(map[string]*RunResult),
	}
}

// analyzer returns the text analyzer used throughout the experiments:
// no stemming or stopping, since the synthetic vocabulary is already
// normalized and the generator models stop-word removal distributionally.
func analyzer() *textproc.Analyzer {
	return textproc.NewAnalyzer(textproc.WithStemming(false), textproc.WithStopWords(nil))
}

// Collection builds (once) and returns the named paper collection.
func (l *Lab) Collection(name string) (*Built, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b, ok := l.cols[name]; ok {
		return b, nil
	}
	col, ok := collection.ByName(name, l.Scale)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown collection %q", name)
	}
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: l.OSCacheBytes})
	stream := col.Stream()
	stats, err := core.Build(fs, col.Name, stream, core.BuildOptions{Analyzer: analyzer()})
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s: %w", name, err)
	}
	b := &Built{Col: col, FS: fs, Stats: stats, TextBytes: stream.TextBytes()}
	b.MaxList = maxListBytes(fs, col.Name)
	l.cols[name] = b
	return b, nil
}

// ChunkedCollection builds (once) the named collection with large
// inverted lists stored as indexed chunked objects, on its own file
// system — the substrate of the bench mode's skip-aware DAAT rows. The
// table experiments keep using the unchunked Collection, so their
// numbers are unaffected.
func (l *Lab) ChunkedCollection(name string) (*Built, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b, ok := l.chunked[name]; ok {
		return b, nil
	}
	col, ok := collection.ByName(name, l.Scale)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown collection %q", name)
	}
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: l.OSCacheBytes})
	stream := col.Stream()
	stats, err := core.Build(fs, col.Name, stream, core.BuildOptions{
		Analyzer:        analyzer(),
		Backends:        []core.BackendKind{core.BackendMneme},
		ChunkLargeLists: ChunkPayloadBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build chunked %s: %w", name, err)
	}
	b := &Built{Col: col, FS: fs, Stats: stats, TextBytes: stream.TextBytes()}
	b.MaxList = maxDictListBytes(fs, col.Name, core.BackendMneme)
	l.chunked[name] = b
	return b, nil
}

// ShardedBuilt is a collection split round-robin into n document-
// partitioned shard collections inside one image (plus the sidecar),
// the substrate of the bench mode's scatter-gather rows.
type ShardedBuilt struct {
	Col collection.PaperCollection
	FS  *vfs.FS
	N   int
	// MaxList is the largest inverted-list record across shard 0's
	// dictionary — the buffer-plan input, as in the unsharded case.
	MaxList int64
}

// ShardedCollection builds (once) the named collection as n document-
// partitioned shards on its own file system. Only the Mneme backend is
// built: the sharded bench rows measure the Mneme+cache configuration.
func (l *Lab) ShardedCollection(name string, n int) (*ShardedBuilt, error) {
	key := fmt.Sprintf("%s/x%d", name, n)
	l.mu.Lock()
	defer l.mu.Unlock()
	if b, ok := l.sharded[key]; ok {
		return b, nil
	}
	col, ok := collection.ByName(name, l.Scale)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown collection %q", name)
	}
	fs := vfs.New(vfs.Options{BlockSize: vfs.DefaultBlockSize, OSCacheBytes: l.OSCacheBytes})
	if _, err := shard.Build([]*vfs.FS{fs}, col.Name, n, col.Stream(), core.BuildOptions{
		Analyzer: analyzer(),
		Backends: []core.BackendKind{core.BackendMneme},
	}); err != nil {
		return nil, fmt.Errorf("experiments: build sharded %s x%d: %w", name, n, err)
	}
	b := &ShardedBuilt{Col: col, FS: fs, N: n}
	b.MaxList = maxDictListBytes(fs, shard.ShardName(col.Name, 0), core.BackendMneme)
	l.sharded[key] = b
	return b, nil
}

// maxListBytes scans the collection dictionary for the largest record.
func maxListBytes(fs *vfs.FS, name string) int64 {
	return maxDictListBytes(fs, name, core.BackendBTree)
}

// maxDictListBytes is maxListBytes through whichever backend index
// file the build produced.
func maxDictListBytes(fs *vfs.FS, name string, kind core.BackendKind) int64 {
	e, err := core.Open(fs, name, kind, core.WithAnalyzer(analyzer()))
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

// PlanFor computes the collection's Table 2 buffer plan using the
// paper's heuristics: large = 3× the largest inverted list; medium = 9%
// of large, but at least 3 medium segments (the CACM rule); small = 3
// small segments.
func PlanFor(b *Built) core.BufferPlan {
	return core.PlanForMaxList(b.MaxList)
}

// RunResult is one measured batch run of a query set under a system.
type RunResult struct {
	Collection string
	QuerySet   string
	Sys        System

	Queries  int
	Lookups  int64
	Postings int64

	IO vfs.Stats // counter delta for the run

	Wall    time.Duration // Table 3 metric (model estimate)
	SysIO   time.Duration // Table 4 metric (model estimate)
	UserCPU time.Duration

	MeasuredNS int64 // real host nanoseconds, for shape cross-checks

	Buffers map[string]mneme.BufferStats

	// AccessSizes are the byte sizes of every record fetched (Figure 2).
	AccessSizes []uint32

	// Snap is the engine's unified post-run snapshot (cumulative
	// counters, not the run delta held in the fields above).
	Snap core.Snapshot
}

// A returns average file accesses per record lookup (Table 5 "A").
func (r *RunResult) A() float64 {
	if r.Lookups == 0 {
		return 0
	}
	return float64(r.IO.FileAccesses) / float64(r.Lookups)
}

// runKey builds the memo key for a run.
func runKey(col string, qs string, sys System) string {
	return fmt.Sprintf("%s/%s/%d", col, qs, sys)
}

// Run executes (once, memoized) the batch run of a collection's query
// set under a system. Runs are deterministic, so memoizing is exact —
// the paper repeated each run six times and saw under 1% variation.
func (l *Lab) Run(colName string, qsIndex int, sys System) (*RunResult, error) {
	b, err := l.Collection(colName)
	if err != nil {
		return nil, err
	}
	if qsIndex < 0 || qsIndex >= len(b.Col.QuerySets) {
		return nil, fmt.Errorf("experiments: %s has no query set %d", colName, qsIndex)
	}
	key := runKey(colName, b.Col.QuerySets[qsIndex].Name, sys)
	l.mu.Lock()
	if r, ok := l.runs[key]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()
	r, err := l.RunFresh(colName, qsIndex, sys)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.runs[key] = r
	l.mu.Unlock()
	return r, nil
}

// RunFresh executes a batch run without consulting or updating the
// memo, for benchmarks that re-measure a configuration. The protocol
// follows the paper: open all files, complete initialization, purge the
// file-system cache with the chill procedure, then time only query
// processing.
func (l *Lab) RunFresh(colName string, qsIndex int, sys System) (*RunResult, error) {
	b, err := l.Collection(colName)
	if err != nil {
		return nil, err
	}
	if qsIndex < 0 || qsIndex >= len(b.Col.QuerySets) {
		return nil, fmt.Errorf("experiments: %s has no query set %d", colName, qsIndex)
	}
	qs := b.Col.QuerySets[qsIndex]
	key := runKey(colName, qs.Name, sys)
	queries := b.Col.GenQueries(qs)

	var kind core.BackendKind
	plan := core.NoCache
	switch sys {
	case SysBTree:
		kind = core.BackendBTree
	case SysMnemeNoCache:
		kind = core.BackendMneme
	case SysMnemeCache:
		kind = core.BackendMneme
		plan = PlanFor(b)
	default:
		return nil, fmt.Errorf("experiments: unknown system %d", sys)
	}

	eng, err := core.Open(b.FS, colName, kind,
		core.WithAnalyzer(analyzer()), core.WithPlan(plan), core.WithAccessLog())
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// "Before each query set was run, a 32 Mbyte 'chill file' was read
	// to purge the operating system file buffers."
	b.FS.Chill()
	eng.ResetCounters()
	eng.Backend().ResetBufferStats()
	before := b.FS.Stats()

	start := time.Now()
	for _, q := range queries {
		if _, err := eng.Run(nil, core.Request{Query: q.Text}); err != nil {
			return nil, fmt.Errorf("experiments: %s: query %s: %w", key, q.ID, err)
		}
	}
	elapsed := time.Since(start)

	delta := b.FS.Stats().Sub(before)
	c := eng.Counters()
	r := &RunResult{
		Collection:  colName,
		QuerySet:    qs.Name,
		Sys:         sys,
		Queries:     len(queries),
		Lookups:     c.Lookups,
		Postings:    c.Postings,
		IO:          delta,
		SysIO:       l.Model.SystemIO(delta),
		UserCPU:     l.Model.UserCPU(c.Postings, len(queries)),
		MeasuredNS:  elapsed.Nanoseconds(),
		Buffers:     eng.Backend().BufferStats(),
		AccessSizes: eng.AccessLog(),
		Snap:        eng.Snapshot(),
	}
	r.Wall = r.UserCPU + r.SysIO
	return r, nil
}

// pair names one (collection, query set) row of the evaluation matrix.
type pair struct {
	col string
	qs  int
}

// matrix returns the paper's seven (collection, query set) rows in
// table order.
func matrix() []pair {
	return []pair{
		{"CACM", 0}, {"CACM", 1}, {"CACM", 2},
		{"Legal", 0}, {"Legal", 1},
		{"TIPSTER1", 0},
		{"TIPSTER", 0},
	}
}
