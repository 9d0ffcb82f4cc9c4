package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/postings"
)

// Hot-path caching. Two layers sit above the storage backends:
//
//   - A decoded-postings block cache holds []Posting bodies that have
//     already been fetched, checksummed, and decoded, so a repeated
//     term read skips the backend fault-in and the varint/bitmap decode
//     entirely. It is shared by the TAAT materializing path (whole
//     records) and the DAAT/MaxScore iterator path (per block, through
//     postings.BlockCacheSink).
//   - A query-result cache memoizes complete, undamaged rankings per
//     canonical Request, so an exactly repeated query costs a map probe.
//
// Both caches are keyed under a generation number drawn from a global
// counter: every index mutation (AddDocument, DeleteDocument, SaveMeta,
// an NRT manifest flip) re-draws the engine's generation, which orphans
// every cached block at once without touching the cache — stale entries
// simply stop matching and age out under the clock hand. Immutable NRT
// segments share one block cache across segment engines; each segment
// engine gets its own generation at open, so retired segments orphan
// their entries the same way.

// cacheGenCounter issues block-cache generations process-wide, so a
// re-opened or invalidated engine can never collide with keys cached
// under a previous life of the same record refs.
var cacheGenCounter atomic.Uint64

func nextCacheGen() uint64 { return cacheGenCounter.Add(1) }

// wholeRecordBlk is the pseudo block index the TAAT path caches a fully
// decoded record under. Real block indexes are small (record bytes /
// BlockLen), so the top bit can never collide.
const wholeRecordBlk = ^uint32(0)

// blockKey identifies one decoded block: the owning engine's cache
// generation, the backend record ref, and the block index within the
// record (wholeRecordBlk for a whole-record TAAT decode).
type blockKey struct {
	gen uint64
	ref uint64
	blk uint32
}

// hash mixes the key for shard selection and is cheap enough to compute
// under no lock (splitmix-style multiply-xor).
func (k blockKey) hash() uint64 {
	h := k.gen*0x9e3779b97f4a7c15 ^ k.ref*0xbf58476d1ce4e5b9 ^ (uint64(k.blk)+1)*0x94d049bb133111eb
	return h ^ (h >> 29)
}

// postingsFootprint approximates the heap bytes a cached decode pins:
// the Posting structs plus their position arena. The +64 covers entry
// and map bookkeeping.
func postingsFootprint(ps []postings.Posting) int64 {
	n := int64(len(ps)) * 32
	for i := range ps {
		n += int64(cap(ps[i].Positions)) * 4
	}
	return n + 64
}

const blockCacheShards = 16

type blockEntry struct {
	key   blockKey
	ps    []postings.Posting
	bytes int64
	refd  bool // clock reference bit
}

// blockCacheShard is one lock domain of the cache: a key→slot map over
// a clock ring. Eviction sweeps the hand, clearing reference bits and
// reclaiming the first cold entry, so a hot working set survives a scan
// of one-shot fills (the 2Q/clock property) without per-hit list moves.
type blockCacheShard struct {
	mu     sync.Mutex
	cap    int64
	bytes  int64
	m      map[blockKey]int
	ring   []*blockEntry
	free   []int
	hand   int
	erased int64
}

// blockCache is the sharded decoded-postings cache. Sixteen lock
// domains keep concurrent searchers off each other's necks; per-shard
// state is a byte-bounded clock ring. Slices handed out by get are
// shared and immutable — callers and fillers must never mutate them.
type blockCache struct {
	shards [blockCacheShards]blockCacheShard

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

func newBlockCache(capBytes int64) *blockCache {
	c := &blockCache{}
	per := capBytes / blockCacheShards
	if per < 4096 {
		per = 4096
	}
	for i := range c.shards {
		c.shards[i].cap = per
		c.shards[i].m = make(map[blockKey]int)
	}
	return c
}

func (c *blockCache) get(k blockKey) ([]postings.Posting, bool) {
	sh := &c.shards[k.hash()%blockCacheShards]
	sh.mu.Lock()
	if i, ok := sh.m[k]; ok {
		e := sh.ring[i]
		e.refd = true
		ps := e.ps
		sh.mu.Unlock()
		c.hits.Add(1)
		return ps, true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// put admits a freshly decoded block. Entries larger than 1/8 of a
// shard are rejected outright: one monster list must not wipe out a
// whole shard's working set. The slice must be freshly allocated and
// never mutated after the call.
func (c *blockCache) put(k blockKey, ps []postings.Posting) {
	size := postingsFootprint(ps)
	sh := &c.shards[k.hash()%blockCacheShards]
	if size > sh.cap/8 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[k]; ok {
		return // a racing searcher filled it first
	}
	for sh.bytes+size > sh.cap && len(sh.m) > 0 {
		sh.evictOne()
	}
	e := &blockEntry{key: k, ps: ps, bytes: size}
	var slot int
	if n := len(sh.free); n > 0 {
		slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.ring[slot] = e
	} else {
		slot = len(sh.ring)
		sh.ring = append(sh.ring, e)
	}
	sh.m[k] = slot
	sh.bytes += size
	c.puts.Add(1)
}

// evictOne advances the clock hand to the first entry whose reference
// bit is clear, clearing bits as it passes. Caller holds sh.mu and
// guarantees the shard is non-empty.
func (sh *blockCacheShard) evictOne() {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		e := sh.ring[sh.hand]
		if e == nil {
			sh.hand++
			continue
		}
		if e.refd {
			e.refd = false
			sh.hand++
			continue
		}
		delete(sh.m, e.key)
		sh.bytes -= e.bytes
		sh.ring[sh.hand] = nil
		sh.free = append(sh.free, sh.hand)
		sh.hand++
		sh.erased++
		return
	}
}

// stats folds the cache's counters and occupancy into a CacheStats
// block (the block-cache half; the caller fills the result-cache half).
func (c *blockCache) stats(into *CacheStats) {
	into.BlockHits = c.hits.Load()
	into.BlockMisses = c.misses.Load()
	into.BlockPuts = c.puts.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		into.BlockEntries += len(sh.m)
		into.BlockBytes += sh.bytes
		into.BlockEvictions += sh.erased
		sh.mu.Unlock()
	}
}

// blockCacheView adapts the shared blockCache to one iterator's
// postings.BlockCacheSink: it pins the (generation, record ref) half of
// the key and charges hits/misses to the owning searcher's counters.
type blockCacheView struct {
	c   *blockCache
	s   *Searcher
	gen uint64
	ref uint64
}

func (v *blockCacheView) GetBlock(i int) ([]postings.Posting, bool) {
	ps, ok := v.c.get(blockKey{gen: v.gen, ref: v.ref, blk: uint32(i)})
	if ok {
		v.s.counters.BlockCacheHits++
	} else {
		v.s.counters.BlockCacheMisses++
	}
	return ps, ok
}

func (v *blockCacheView) PutBlock(i int, ps []postings.Posting) {
	v.c.put(blockKey{gen: v.gen, ref: v.ref, blk: uint32(i)}, ps)
}

// resultCache memoizes complete rankings per canonical request key: a
// bounded clock ring, like the block cache but entry-counted (rankings
// are top-k sized and uniform) and purged wholesale on invalidation.
type resultCache struct {
	mu   sync.Mutex
	max  int
	m    map[string]int
	ring []*resultEntry
	free []int
	hand int

	hits   atomic.Int64
	misses atomic.Int64
}

type resultEntry struct {
	key  string
	res  []Result
	refd bool
}

func newResultCache(entries int) *resultCache {
	if entries < 1 {
		entries = 1
	}
	return &resultCache{max: entries, m: make(map[string]int)}
}

// get returns a copy of the cached ranking — callers own and may sort
// or truncate their response slices.
func (c *resultCache) get(key string) ([]Result, bool) {
	c.mu.Lock()
	if i, ok := c.m[key]; ok {
		e := c.ring[i]
		e.refd = true
		res := append([]Result(nil), e.res...)
		c.mu.Unlock()
		c.hits.Add(1)
		return res, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

func (c *resultCache) put(key string, res []Result) {
	stored := append([]Result(nil), res...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= c.max {
		c.evictOne()
	}
	e := &resultEntry{key: key, res: stored}
	var slot int
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
		c.ring[slot] = e
	} else {
		slot = len(c.ring)
		c.ring = append(c.ring, e)
	}
	c.m[key] = slot
}

// evictOne is the clock sweep; caller holds c.mu on a non-empty cache.
func (c *resultCache) evictOne() {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e == nil {
			c.hand++
			continue
		}
		if e.refd {
			e.refd = false
			c.hand++
			continue
		}
		delete(c.m, e.key)
		c.ring[c.hand] = nil
		c.free = append(c.free, c.hand)
		c.hand++
		return
	}
}

// purge empties the cache (index mutated: every memoized ranking is
// suspect). Hit/miss tallies survive — they describe traffic, not
// contents.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]int)
	c.ring = nil
	c.free = nil
	c.hand = 0
}

func (c *resultCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// CacheStats is the cache block of a Snapshot: traffic and occupancy
// for both cache layers. Nil in snapshots of engines opened without
// caching, so existing snapshot consumers are undisturbed.
type CacheStats struct {
	ResultHits    int64 `json:"result_hits"`
	ResultMisses  int64 `json:"result_misses"`
	ResultEntries int   `json:"result_entries"`

	BlockHits      int64 `json:"block_hits"`
	BlockMisses    int64 `json:"block_misses"`
	BlockPuts      int64 `json:"block_puts"`
	BlockEvictions int64 `json:"block_evictions"`
	BlockEntries   int   `json:"block_entries"`
	BlockBytes     int64 `json:"block_bytes"`
}

// Add merges two cache snapshots; the shard coordinator uses it to
// aggregate per-engine stats into one collection-level view.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		ResultHits:     s.ResultHits + o.ResultHits,
		ResultMisses:   s.ResultMisses + o.ResultMisses,
		ResultEntries:  s.ResultEntries + o.ResultEntries,
		BlockHits:      s.BlockHits + o.BlockHits,
		BlockMisses:    s.BlockMisses + o.BlockMisses,
		BlockPuts:      s.BlockPuts + o.BlockPuts,
		BlockEvictions: s.BlockEvictions + o.BlockEvictions,
		BlockEntries:   s.BlockEntries + o.BlockEntries,
		BlockBytes:     s.BlockBytes + o.BlockBytes,
	}
}

// cacheStats assembles the front's CacheStats, or nil when neither
// cache layer is configured.
func (f *queryFront) cacheStats() *CacheStats {
	if f.blocks == nil && f.results == nil {
		return nil
	}
	cs := &CacheStats{}
	if f.blocks != nil {
		f.blocks.stats(cs)
	}
	if f.results != nil {
		cs.ResultHits = f.results.hits.Load()
		cs.ResultMisses = f.results.misses.Load()
		cs.ResultEntries = f.results.entries()
	}
	return cs
}

// InvalidateCaches re-draws the engine's cache generation — orphaning
// every cached decoded block — and purges the result cache. Mutation
// paths call it automatically; it is exported for callers that mutate
// storage behind the engine's back.
func (e *Engine) InvalidateCaches() {
	e.gen.Store(nextCacheGen())
	if e.results != nil {
		e.results.purge()
	}
}
