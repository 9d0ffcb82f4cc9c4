package core

// Near-real-time indexing: an LSM-style write path over the batch
// engine. Documents land in a searchable in-memory memtable backed by a
// CRC'd write-ahead log (acknowledged only after Append+Sync), and
// size/time triggers flush the memtable through the ordinary batch
// builder into an immutable segment — a full mini-collection whose
// records carry global doc IDs, so query iterators simply concatenate
// per-segment lists (inference.Chain) with the memtable tail. A
// background compactor merges flushed segments with the mixed-version
// merge-upgrade machinery (decoded v1/v2 inputs re-encoded with
// EncodeAuto).
//
// Durability follows Mneme's commit-point discipline on a file system
// with no rename: every mutation of the durable state is
// write-new-then-delete-old, committed by a self-checksummed
// generational manifest. A crash at any write/sync ordinal reboots
// into either the old generation or the new one, never a hybrid, and
// never loses an acknowledged document: acked docs are always covered
// by (manifest segments) + (that manifest's WAL generation).
//
// On-disk layout for an NRT collection <name>:
//
//	<name>.nrt.<gen>  manifest: magic | crc32(json) | len | json
//	<name>.wal.<gen>  write-ahead log of un-flushed documents
//	<name>.g<seq>.*   flushed segments (.lex/.doc + .bt or .mn)
//	<name>.*          the optional batch-built base collection,
//	                  wrapped as segment zero
//
// Open picks the highest-generation manifest that validates and
// removes everything the chosen generation does not reference —
// leftovers of a torn flush or compaction.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/lexicon"
	"repro/internal/mneme"
	"repro/internal/obs"
	"repro/internal/postings"
	"repro/internal/resilience"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// NRTConfig sets the write path's triggers. The zero value is fully
// manual: flush and compaction run only when Flush/Compact are called.
type NRTConfig struct {
	// FlushDocs flushes the memtable when it holds this many documents
	// (checked after every ingest batch; 0 disables the trigger).
	FlushDocs int
	// FlushBytes flushes when the memtable's approximate heap footprint
	// exceeds this many bytes (0 disables).
	FlushBytes int64
	// CompactSegments compacts when this many flushed (non-base)
	// segments have accumulated (0 disables auto-compaction).
	CompactSegments int
	// FlushEvery, when positive, runs the size-independent time trigger:
	// a background goroutine flushes (and, with CompactSegments set,
	// compacts) at this period until Close.
	FlushEvery time.Duration
}

// nrtManifest is the durable commit point: the segment roster and the
// WAL generation that together cover every acknowledged document.
type nrtManifest struct {
	Gen      uint64           `json:"gen"`
	WalGen   uint64           `json:"wal_gen"`
	NextSeg  uint64           `json:"next_seg"`
	Docs     uint32           `json:"docs"` // documents covered by segments
	Segments []nrtManifestSeg `json:"segments"`
}

type nrtManifestSeg struct {
	Name string `json:"name"`
	Base uint32 `json:"base"`
	Docs uint32 `json:"docs"`
	// BaseColl marks the wrapped batch-built collection: it is never
	// compacted or deleted by the NRT machinery.
	BaseColl bool `json:"base_collection,omitempty"`
}

const nrtMagic = "NRT1"

// nrtSegment is one opened segment: an ordinary Engine over a
// contiguous global doc range [base, base+docs).
type nrtSegment struct {
	name     string
	base     uint32
	docs     uint32
	baseColl bool
	eng      *Engine
}

// FlushStat records one flush's deterministic cost split: the I/O of
// building and committing the segment (concurrent with queries) and
// the I/O inside the query-blocking flip window.
type FlushStat struct {
	Docs    int       `json:"docs"`
	Toks    int64     `json:"toks"`
	BuildIO vfs.Stats `json:"build_io"`
	PauseIO vfs.Stats `json:"pause_io"`
}

// NRTStats is the write-path block of an NRT engine's Snapshot.
type NRTStats struct {
	Gen         uint64 `json:"gen"`
	WalGen      uint64 `json:"wal_gen"`
	WalEntries  int64  `json:"wal_entries"`
	MemDocs     int    `json:"memtable_docs"`
	MemBytes    int64  `json:"memtable_bytes"`
	Ingested    int64  `json:"ingested_docs"`
	Flushes     int64  `json:"flushes"`
	Compactions int64  `json:"compactions"`
	// WalTruncFrames / WalTruncBytes count what the torn-tail
	// truncation at open discarded from the replayed WAL — zero after
	// a clean shutdown, non-zero exactly when a crash cut an
	// unacknowledged append (or worse) out of the log.
	WalTruncFrames int64        `json:"wal_trunc_frames,omitempty"`
	WalTruncBytes  int64        `json:"wal_trunc_bytes,omitempty"`
	Segments       []NRTSegStat `json:"segments"`
}

// NRTSegStat describes one live segment.
type NRTSegStat struct {
	Name           string `json:"name"`
	Base           uint32 `json:"base"`
	Docs           uint32 `json:"docs"`
	BaseCollection bool   `json:"base_collection,omitempty"`
}

// NRTEngine is a collection that serves queries while ingesting. It
// implements the same Run/Explain/Snapshot/Health surface as Engine,
// so the serving layer treats the two interchangeably. Its requests run
// through the plain engine's lifecycle (the embedded queryFront: one
// admission gate, result cache, deadline and accounting path); only the
// view differs — segment searchers plus the memtable at a watermark.
type NRTEngine struct {
	// queryFront is NRT-level: one gate admits the whole query (the
	// segments open ungated), the result cache is keyed by the
	// visibility watermark, and every segment engine shares the block
	// cache.
	queryFront

	fs   *vfs.FS
	name string
	kind BackendKind
	cfg  NRTConfig

	ingDocs  *obs.Counter
	ingToks  *obs.Counter
	flushC   *obs.Counter
	flushErr *obs.Counter
	compactC *obs.Counter
	memDocsG *obs.Gauge
	memBytsG *obs.Gauge
	segsG    *obs.Gauge

	// ingestMu serializes every state mutation: ingest, flush, compact,
	// close. Queries never take it.
	ingestMu       sync.Mutex
	closed         bool
	walBroken      bool
	wal            *mneme.WAL
	gen            uint64
	walGen         uint64
	nextSeg        uint64
	ingested       int64
	flushes        int64
	compacts       int64
	walTruncFrames int64
	walTruncBytes  int64
	flushLog       []FlushStat

	// viewMu guards the query view (segs, mem, memBase): queries hold
	// the read lock for their whole evaluation, so flush/compact flips
	// — which take the write lock — can retire and close segment
	// engines with no reader in flight. Lock order: ingestMu → viewMu
	// → pubMu.
	viewMu  sync.RWMutex
	segs    []*nrtSegment
	mem     *memtable
	memBase uint32

	// pubMu guards the visibility watermark and the per-doc statistics
	// queries capture at start: docCount (the watermark), lens (every
	// doc's token count, append-only), totalToks.
	pubMu     sync.Mutex
	docCount  uint32
	lens      []uint32
	totalToks int64

	// Documents not yet flushed, retained for segment builds (tokens)
	// and future WAL generations (raw payloads). Guarded by ingestMu.
	tailToks [][]textproc.Token
	tailRaw  [][]byte

	bgStop chan struct{}
	bgWG   sync.WaitGroup
}

func nrtManName(name string, gen uint64) string { return fmt.Sprintf("%s.nrt.%d", name, gen) }
func nrtWalName(name string, gen uint64) string { return fmt.Sprintf("%s.wal.%d", name, gen) }
func nrtSegName(name string, seq uint64) string { return fmt.Sprintf("%s.g%d", name, seq) }

// OpenNRT opens (or initializes) the near-real-time collection <name>.
// With no manifest present it starts fresh, wrapping an existing
// batch-built collection of the same name as the immutable base
// segment; with a manifest it recovers: the highest generation that
// validates wins, its WAL is replayed into the memtable, and files the
// chosen generation does not reference are removed. Engine options
// apply to every segment except WithMaxInFlight, which gates at the
// NRT level so one admission decision covers the whole query.
func OpenNRT(fs *vfs.FS, name string, kind BackendKind, cfg NRTConfig, opts ...Option) (*NRTEngine, error) {
	var opt engineOptions
	for _, o := range opts {
		o(&opt)
	}
	e := &NRTEngine{
		fs:   fs,
		name: name,
		kind: kind,
		cfg:  cfg,
		mem:  newMemtable(),
	}
	e.initFront(opt)
	an := e.an
	reg := e.met.reg
	e.ingDocs = reg.Counter("ingested_docs_total")
	e.ingToks = reg.Counter("ingested_tokens_total")
	e.flushC = reg.Counter("flushes_total")
	e.flushErr = reg.Counter("flush_errors_total")
	e.compactC = reg.Counter("compactions_total")
	e.memDocsG = reg.Gauge("memtable_docs")
	e.memBytsG = reg.Gauge("memtable_bytes")
	e.segsG = reg.Gauge("segments")

	man := e.loadManifest()
	if man == nil {
		man = &nrtManifest{Gen: 1, WalGen: 1, NextSeg: 1}
		if fs.Exists(name + suffixLexicon) {
			lens, _, err := loadDocMeta(fs, name)
			if err != nil {
				return nil, err
			}
			man.Segments = []nrtManifestSeg{{Name: name, Docs: uint32(len(lens)), BaseColl: true}}
			man.Docs = uint32(len(lens))
		}
		if _, err := e.createWAL(nrtWalName(name, man.WalGen), nil); err != nil {
			return nil, err
		}
		if err := e.writeManifest(man); err != nil {
			return nil, err
		}
	}
	e.gen, e.walGen, e.nextSeg = man.Gen, man.WalGen, man.NextSeg
	e.cleanupOrphans(man)

	for _, ms := range man.Segments {
		eng, err := e.openSegEngine(ms.Name)
		if err != nil {
			e.closeSegs()
			return nil, fmt.Errorf("core: nrt open segment %q: %w", ms.Name, err)
		}
		e.segs = append(e.segs, &nrtSegment{name: ms.Name, base: ms.Base, docs: ms.Docs, baseColl: ms.BaseColl, eng: eng})
		e.lens = append(e.lens, eng.docLens...)
		e.totalToks += eng.total
	}
	e.docCount = man.Docs
	e.memBase = man.Docs
	if int(man.Docs) != len(e.lens) {
		e.closeSegs()
		return nil, fmt.Errorf("core: nrt manifest for %q: %w: segment roster covers %d docs, manifest says %d",
			name, mneme.ErrCorrupt, len(e.lens), man.Docs)
	}

	expect := e.docCount
	wal, err := mneme.OpenWAL(fs, nrtWalName(name, e.walGen), func(p []byte) error {
		id, nr := binary.Uvarint(p)
		if nr <= 0 || uint32(id) != expect {
			return fmt.Errorf("core: nrt wal for %q: %w: entry for doc %d, want %d",
				name, mneme.ErrCorrupt, id, expect)
		}
		text := string(p[nr:])
		toks := an.Tokens(text)
		e.mem.add(uint32(id), toks)
		e.lens = append(e.lens, uint32(len(toks)))
		e.totalToks += int64(len(toks))
		e.tailToks = append(e.tailToks, toks)
		e.tailRaw = append(e.tailRaw, append([]byte(nil), p...))
		e.docCount++
		expect++
		return nil
	})
	if err != nil {
		e.closeSegs()
		return nil, err
	}
	e.wal = wal
	if tb := wal.TruncatedBytes(); tb > 0 {
		e.walTruncFrames, e.walTruncBytes = wal.TruncatedFrames(), tb
		reg.Counter("wal_truncated_frames_total").Add(wal.TruncatedFrames())
		reg.Counter("wal_truncated_bytes_total").Add(tb)
		log.Printf("core: nrt open %q: wal=%s replayed_entries=%d truncated_frames=%d truncated_bytes=%d (torn tail discarded; unacknowledged appends only unless frames>1)",
			name, nrtWalName(name, e.walGen), wal.Entries(), wal.TruncatedFrames(), tb)
	}
	e.refreshGauges()

	if cfg.FlushEvery > 0 {
		e.bgStop = make(chan struct{})
		e.bgWG.Add(1)
		go e.backgroundLoop()
	}
	return e, nil
}

// backgroundLoop is the time trigger: flush (and maybe compact) every
// FlushEvery until Close. Errors are counted, not fatal — the next
// tick retries from the intact old state.
func (e *NRTEngine) backgroundLoop() {
	defer e.bgWG.Done()
	t := time.NewTicker(e.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-e.bgStop:
			return
		case <-t.C:
			e.ingestMu.Lock()
			if !e.closed {
				if err := e.flushLocked(); err != nil {
					e.flushErr.Add(1)
				} else if e.cfg.CompactSegments > 0 && e.flushedSegs() >= e.cfg.CompactSegments {
					if err := e.compactLocked(); err != nil {
						e.flushErr.Add(1)
					}
				}
			}
			e.ingestMu.Unlock()
		}
	}
}

func (e *NRTEngine) closeSegs() {
	for _, s := range e.segs {
		_ = s.eng.Close()
	}
	e.segs = nil
}

// openSegEngine opens one segment with the NRT engine's resolved
// options, minus admission control (gating happens once, NRT-level)
// and global-stats overrides (the NRT searcher is its own statistics
// authority).
func (e *NRTEngine) openSegEngine(name string) (*Engine, error) {
	res := e.opts
	res.MaxInFlight = 0
	res.QueueWait = 0
	res.Global = nil
	res.Analyzer = e.an
	// Caching is NRT-level: results are memoized against the watermark
	// (not per segment), and all segments share one block-cache budget.
	res.ResultCacheEntries = 0
	res.BlockCacheMB = 0
	res.sharedBlocks = e.blocks
	return Open(e.fs, name, e.kind, func(o *engineOptions) { *o = res })
}

// loadManifest returns the highest-generation manifest that validates,
// or nil when none exists (fresh collection). Torn or bit-rotted
// generations are skipped — they are the unacknowledged tail of a
// crashed commit.
func (e *NRTEngine) loadManifest() *nrtManifest {
	prefix := e.name + ".nrt."
	var gens []uint64
	for _, f := range e.fs.Names() {
		if g, ok := parseGen(f, prefix); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		if man := e.readManifest(nrtManName(e.name, g)); man != nil && man.Gen == g {
			return man
		}
	}
	return nil
}

func parseGen(fname, prefix string) (uint64, bool) {
	if !strings.HasPrefix(fname, prefix) {
		return 0, false
	}
	var g uint64
	rest := fname[len(prefix):]
	if rest == "" {
		return 0, false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0, false
		}
		g = g*10 + uint64(c-'0')
	}
	return g, true
}

func (e *NRTEngine) readManifest(fname string) *nrtManifest {
	f, err := e.fs.Open(fname)
	if err != nil {
		return nil
	}
	size := f.Size()
	if size < 12 {
		return nil
	}
	hdr := make([]byte, 12)
	if vfs.ReadFull(f, hdr, 0) != nil || string(hdr[:4]) != nrtMagic {
		return nil
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	n := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	if 12+n > size {
		return nil
	}
	body := make([]byte, n)
	if vfs.ReadFull(f, body, 12) != nil || crc32.ChecksumIEEE(body) != want {
		return nil
	}
	var man nrtManifest
	if json.Unmarshal(body, &man) != nil {
		return nil
	}
	return &man
}

// writeManifest durably writes a manifest generation: remove any
// leftover of the same name (a prior torn attempt), create, write
// magic+crc+len+json, sync. The sync is the commit point.
func (e *NRTEngine) writeManifest(man *nrtManifest) error {
	body, err := json.Marshal(man)
	if err != nil {
		return err
	}
	fname := nrtManName(e.name, man.Gen)
	if e.fs.Exists(fname) {
		if err := e.fs.Remove(fname); err != nil {
			return err
		}
	}
	f, err := e.fs.Create(fname)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 12+len(body))
	buf = append(buf, nrtMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	if _, err := f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("core: nrt manifest %q: %w", fname, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("core: nrt manifest %q: %w", fname, err)
	}
	return nil
}

// createWAL replaces any leftover log of the same name (torn earlier
// attempt) and creates a fresh one holding the given payloads, synced.
func (e *NRTEngine) createWAL(fname string, payloads [][]byte) (*mneme.WAL, error) {
	if e.fs.Exists(fname) {
		if err := e.fs.Remove(fname); err != nil {
			return nil, err
		}
	}
	w, err := mneme.CreateWAL(e.fs, fname)
	if err != nil {
		return nil, err
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			return nil, err
		}
	}
	if err := w.Sync(); err != nil {
		return nil, err
	}
	return w, nil
}

// cleanupOrphans removes every NRT-owned file the chosen manifest does
// not reference: stale manifests and WAL generations, and segment
// files left by a torn flush or compaction. The base collection's own
// files are never touched.
func (e *NRTEngine) cleanupOrphans(man *nrtManifest) {
	keep := make(map[string]bool, len(man.Segments))
	for _, s := range man.Segments {
		keep[s.Name] = true
	}
	walFile := nrtWalName(e.name, man.WalGen)
	manFile := nrtManName(e.name, man.Gen)
	segPrefix := e.name + ".g"
	for _, f := range e.fs.Names() {
		switch {
		case strings.HasPrefix(f, e.name+".wal."):
			if f != walFile {
				_ = e.fs.Remove(f)
			}
		case strings.HasPrefix(f, e.name+".nrt."):
			if f != manFile {
				_ = e.fs.Remove(f)
			}
		case strings.HasPrefix(f, segPrefix):
			if p, ok := segFilePrefix(f, segPrefix); ok && !keep[p] {
				_ = e.fs.Remove(f)
			}
		}
	}
}

// segFilePrefix extracts "<name>.g<seq>" from one of its files
// ("<name>.g<seq>.lex", ".run0", ...). ok=false when fname is not
// shaped like a segment file.
func segFilePrefix(fname, segPrefix string) (string, bool) {
	rest := fname[len(segPrefix):]
	i := 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if i == 0 || i >= len(rest) || rest[i] != '.' {
		return "", false
	}
	return fname[:len(segPrefix)+i], true
}

// removeFilesWithPrefix removes every file under "<prefix>." — the
// defensive sweep before rebuilding a segment name that a failed or
// crashed earlier attempt may have littered.
func (e *NRTEngine) removeFilesWithPrefix(prefix string) {
	for _, f := range e.fs.Names() {
		if strings.HasPrefix(f, prefix+".") {
			_ = e.fs.Remove(f)
		}
	}
}

// Ingest analyzes and indexes a batch of documents, assigning them
// consecutive global doc IDs starting at the returned value. The batch
// is atomic and durable when Ingest returns nil: every document is in
// the synced WAL and searchable. On error nothing is acknowledged —
// partial WAL frames are rewound (or, if even the rewind fails, the
// engine latches write-broken and refuses further ingests; queries
// continue).
func (e *NRTEngine) Ingest(texts ...string) (uint32, error) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	first := e.docCount
	if len(texts) == 0 {
		return first, nil
	}
	if e.closed {
		return first, errors.New("core: nrt engine closed")
	}
	if e.walBroken {
		return first, errors.New("core: nrt ingest disabled: write-ahead log in unknown state after failed rewind")
	}

	toks := make([][]textproc.Token, len(texts))
	raws := make([][]byte, len(texts))
	var totalToks int64
	for i, text := range texts {
		id := first + uint32(i)
		toks[i] = e.an.Tokens(text)
		totalToks += int64(len(toks[i]))
		buf := make([]byte, 0, binary.MaxVarintLen32+len(text))
		buf = binary.AppendUvarint(buf, uint64(id))
		raws[i] = append(buf, text...)
	}

	mark := e.wal.Mark()
	var werr error
	for _, p := range raws {
		if werr = e.wal.Append(p); werr != nil {
			break
		}
	}
	if werr == nil {
		werr = e.wal.Sync()
	}
	if werr != nil {
		if rerr := e.wal.Rewind(mark); rerr != nil {
			e.walBroken = true
		}
		return first, fmt.Errorf("core: nrt ingest: %w", werr)
	}

	// Durable — publish. Readers capturing the watermark under pubMu
	// see either none or all of this batch's statistics; the memtable's
	// own watermark truncation keeps per-term lists consistent.
	e.pubMu.Lock()
	for i := range texts {
		id := first + uint32(i)
		e.mem.add(id, toks[i])
		e.lens = append(e.lens, uint32(len(toks[i])))
	}
	e.totalToks += totalToks
	e.docCount = first + uint32(len(texts))
	e.pubMu.Unlock()
	e.tailToks = append(e.tailToks, toks...)
	e.tailRaw = append(e.tailRaw, raws...)
	e.ingested += int64(len(texts))
	e.ingDocs.Add(int64(len(texts)))
	e.ingToks.Add(totalToks)
	e.refreshGauges()

	// The batch is acknowledged regardless of what maintenance does
	// next: a failed auto-flush leaves the docs durable in the WAL and
	// the old view intact, counted in flush_errors_total, and the next
	// trigger retries.
	e.maybeFlushLocked()
	return first, nil
}

// maybeFlushLocked applies the size triggers after an ingest batch.
// Best-effort: failures are counted, never surfaced to the ingester.
func (e *NRTEngine) maybeFlushLocked() {
	docs, _, bytes := e.mem.stats()
	trigger := (e.cfg.FlushDocs > 0 && docs >= e.cfg.FlushDocs) ||
		(e.cfg.FlushBytes > 0 && bytes >= e.cfg.FlushBytes)
	if !trigger {
		return
	}
	if err := e.flushLocked(); err != nil {
		e.flushErr.Add(1)
		return
	}
	if e.cfg.CompactSegments > 0 && e.flushedSegs() >= e.cfg.CompactSegments {
		if err := e.compactLocked(); err != nil {
			e.flushErr.Add(1)
		}
	}
}

func (e *NRTEngine) flushedSegs() int {
	n := 0
	for _, s := range e.segs {
		if !s.baseColl {
			n++
		}
	}
	return n
}

// Flush drains the memtable into an immutable segment. Queries run
// concurrently throughout the build and are blocked only for the
// pointer flip at the end. A failed flush leaves the old state fully
// intact — the partial segment files are swept on the next attempt.
func (e *NRTEngine) Flush() error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.closed {
		return errors.New("core: nrt engine closed")
	}
	return e.flushLocked()
}

func (e *NRTEngine) flushLocked() error {
	memDocs := int(e.docCount - e.memBase)
	if memDocs == 0 {
		return nil
	}
	ioBefore := e.fs.Stats()
	seg := nrtSegName(e.name, e.nextSeg)
	e.removeFilesWithPrefix(seg)

	// Replay the retained token streams through the ordinary batch
	// builder; BaseDoc makes the records carry global doc IDs.
	b := index.NewBuilder(e.fs, index.Options{
		Analyzer: e.an,
		Scratch:  seg + ".run",
		BaseDoc:  e.memBase,
	})
	var toksFlushed int64
	for i, toks := range e.tailToks {
		if err := b.AddTokens(e.memBase+uint32(i), toks); err != nil {
			return err
		}
		toksFlushed += int64(len(toks))
	}
	if _, err := finishBuild(e.fs, seg, b, []BackendKind{e.kind}, nil, e.opts.ChunkLargeLists); err != nil {
		return err
	}
	if err := e.syncSegmentFiles(seg); err != nil {
		return err
	}
	eng, err := e.openSegEngine(seg)
	if err != nil {
		return err
	}

	// New (empty) WAL generation, then the manifest commit point.
	newWal, err := e.createWAL(nrtWalName(e.name, e.walGen+1), nil)
	if err != nil {
		_ = eng.Close()
		return err
	}
	man := e.manifestLocked()
	man.Gen++
	man.WalGen++
	man.NextSeg++
	man.Docs = e.docCount
	man.Segments = append(man.Segments, nrtManifestSeg{Name: seg, Base: e.memBase, Docs: uint32(memDocs)})
	if err := e.writeManifest(man); err != nil {
		_ = eng.Close()
		_ = newWal.Close()
		return err
	}

	// Committed. Flip the query view; only this window blocks readers.
	oldWalFile := nrtWalName(e.name, e.walGen)
	oldManFile := nrtManName(e.name, e.gen)
	pauseBefore := e.fs.Stats()
	e.viewMu.Lock()
	e.segs = append(e.segs, &nrtSegment{name: seg, base: e.memBase, docs: uint32(memDocs), eng: eng})
	e.mem = newMemtable()
	e.memBase = e.docCount
	e.viewMu.Unlock()
	pauseIO := e.fs.Stats().Sub(pauseBefore)

	oldWal := e.wal
	e.wal = newWal
	e.gen, e.walGen, e.nextSeg = man.Gen, man.WalGen, man.NextSeg
	e.tailToks, e.tailRaw = nil, nil
	e.walBroken = false
	_ = oldWal.Close()
	_ = e.fs.Remove(oldWalFile)
	_ = e.fs.Remove(oldManFile)

	e.flushes++
	e.flushC.Add(1)
	e.flushLog = append(e.flushLog, FlushStat{
		Docs:    memDocs,
		Toks:    toksFlushed,
		BuildIO: e.fs.Stats().Sub(ioBefore),
		PauseIO: pauseIO,
	})
	e.refreshGauges()
	return nil
}

// syncSegmentFiles makes a freshly built segment durable before the
// manifest references it (the builder's save paths do not sync).
func (e *NRTEngine) syncSegmentFiles(seg string) error {
	suffixes := []string{suffixLexicon, suffixDocMeta}
	if e.kind == BackendBTree {
		suffixes = append(suffixes, suffixBTree)
	} else {
		suffixes = append(suffixes, suffixMneme)
	}
	for _, sfx := range suffixes {
		f, err := e.fs.Open(seg + sfx)
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// manifestLocked reconstructs the current durable manifest from
// in-memory state (callers then mutate and bump Gen).
func (e *NRTEngine) manifestLocked() *nrtManifest {
	man := &nrtManifest{Gen: e.gen, WalGen: e.walGen, NextSeg: e.nextSeg, Docs: e.memBase}
	for _, s := range e.segs {
		man.Segments = append(man.Segments, nrtManifestSeg{Name: s.name, Base: s.base, Docs: s.docs, BaseColl: s.baseColl})
	}
	return man
}

// Compact merges every flushed (non-base) segment into one, re-encoding
// each term's concatenated postings with EncodeAuto — the same
// merge-upgrade path that lifts v1 records into block format once they
// grow past a block. The base collection is left alone. Queries run
// concurrently; the flip at the end retires and closes the inputs.
func (e *NRTEngine) Compact() error {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	if e.closed {
		return errors.New("core: nrt engine closed")
	}
	return e.compactLocked()
}

func (e *NRTEngine) compactLocked() error {
	var inputs []*nrtSegment
	for _, s := range e.segs {
		if !s.baseColl {
			inputs = append(inputs, s)
		}
	}
	if len(inputs) < 2 {
		return nil
	}
	merged := nrtSegName(e.name, e.nextSeg)
	e.removeFilesWithPrefix(merged)

	// Term-by-term merge in sorted term order, so interned IDs ascend
	// and the B-tree sink can bulk-load.
	termSet := make(map[string]struct{})
	for _, s := range inputs {
		s.eng.dict.Range(func(en *lexicon.Entry) bool {
			termSet[en.Term] = struct{}{}
			return true
		})
	}
	terms := make([]string, 0, len(termSet))
	for t := range termSet {
		terms = append(terms, t)
	}
	sort.Strings(terms)

	dict := lexicon.New()
	mergeTerm := func(term string) ([]byte, *lexicon.Entry, error) {
		var ps []postings.Posting
		var ctf uint64
		for _, s := range inputs {
			en, ok := s.eng.dict.Lookup(term)
			if !ok {
				continue
			}
			ref, ok := s.eng.refOf(en)
			if !ok {
				continue
			}
			rec, err := s.eng.backend.Fetch(ref)
			if err != nil {
				return nil, nil, err
			}
			if ps, err = postings.AppendAll(ps, rec); err != nil {
				return nil, nil, err
			}
			ctf += en.CTF
		}
		if len(ps) == 0 {
			return nil, nil, nil
		}
		rec, err := postings.EncodeAuto(ps)
		if err != nil {
			return nil, nil, err
		}
		en := dict.Intern(term)
		en.CTF = ctf
		en.DF = uint64(len(ps))
		en.ListBytes = uint32(len(rec))
		return rec, en, nil
	}

	switch e.kind {
	case BackendBTree:
		bt, tree, err := CreateBTreeBackend(e.fs, merged+suffixBTree)
		if err != nil {
			return err
		}
		var inner error
		i := 0
		err = tree.BulkLoad(func() (uint32, []byte, bool) {
			for i < len(terms) {
				rec, en, err := mergeTerm(terms[i])
				i++
				if err != nil {
					inner = err
					return 0, nil, false
				}
				if en != nil {
					return en.ID, rec, true
				}
			}
			return 0, nil, false
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			_ = bt.Close()
			return err
		}
		if err := bt.Close(); err != nil {
			return err
		}
	default:
		cfg := MnemeConfig(BufferPlan{SmallBytes: 1 << 16, MediumBytes: 1 << 20, LargeBytes: 1 << 22})
		mn, err := CreateMnemeBackend(e.fs, merged+suffixMneme, cfg)
		if err != nil {
			return err
		}
		mn.SetChunking(e.opts.ChunkLargeLists)
		for _, term := range terms {
			rec, en, err := mergeTerm(term)
			if err != nil {
				_ = mn.Close()
				return err
			}
			if en == nil {
				continue
			}
			id, err := mn.Store(rec)
			if err != nil {
				_ = mn.Close()
				return err
			}
			en.Ref = id
		}
		if err := mn.Close(); err != nil {
			return err
		}
	}

	var lens []uint32
	var total int64
	for _, s := range inputs {
		lens = append(lens, s.eng.docLens...)
		total += s.eng.total
	}
	if err := saveLexicon(e.fs, merged, dict); err != nil {
		return err
	}
	if err := saveDocMeta(e.fs, merged, lens, total); err != nil {
		return err
	}
	if err := e.syncSegmentFiles(merged); err != nil {
		return err
	}
	eng, err := e.openSegEngine(merged)
	if err != nil {
		return err
	}

	man := e.manifestLocked()
	man.Gen++
	man.NextSeg++
	var kept []nrtManifestSeg
	for _, ms := range man.Segments {
		if ms.BaseColl {
			kept = append(kept, ms)
		}
	}
	man.Segments = append(kept, nrtManifestSeg{Name: merged, Base: inputs[0].base, Docs: uint32(len(lens))})
	if err := e.writeManifest(man); err != nil {
		_ = eng.Close()
		return err
	}

	// Committed — flip, retire inputs, sweep their files.
	oldManFile := nrtManName(e.name, e.gen)
	e.viewMu.Lock()
	var segs []*nrtSegment
	for _, s := range e.segs {
		if s.baseColl {
			segs = append(segs, s)
		}
	}
	segs = append(segs, &nrtSegment{name: merged, base: inputs[0].base, docs: uint32(len(lens)), eng: eng})
	e.segs = segs
	e.viewMu.Unlock()
	e.gen, e.nextSeg = man.Gen, man.NextSeg
	for _, s := range inputs {
		_ = s.eng.Close()
		e.removeFilesWithPrefix(s.name)
	}
	_ = e.fs.Remove(oldManFile)

	e.compacts++
	e.compactC.Add(1)
	e.refreshGauges()
	return nil
}

func (e *NRTEngine) refreshGauges() {
	docs, _, bytes := e.mem.stats()
	e.memDocsG.Set(int64(docs))
	e.memBytsG.Set(bytes)
	e.segsG.Set(int64(len(e.segs)))
}

// Close stops the background trigger, waits out any in-flight flush,
// and closes the WAL and every segment engine. Idempotent.
func (e *NRTEngine) Close() error {
	e.ingestMu.Lock()
	if e.closed {
		e.ingestMu.Unlock()
		return nil
	}
	e.closed = true
	e.ingestMu.Unlock()
	if e.bgStop != nil {
		close(e.bgStop)
		e.bgWG.Wait()
	}
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	var first error
	if e.wal != nil {
		if err := e.wal.Close(); err != nil {
			first = err
		}
		e.wal = nil
	}
	e.viewMu.Lock()
	for _, s := range e.segs {
		if err := s.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.segs = nil
	e.viewMu.Unlock()
	return first
}

// NumDocs is the searchable document count right now (segments plus
// memtable).
func (e *NRTEngine) NumDocs() int {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return int(e.docCount)
}

// Kind reports the backend every segment runs on.
func (e *NRTEngine) Kind() BackendKind { return e.kind }

// Counters returns the aggregate work counters across every query this
// engine has served, plus retry recoveries from the segment engines.
func (e *NRTEngine) Counters() Counters {
	c := e.agg.snapshot()
	e.viewMu.RLock()
	for _, s := range e.segs {
		c.RetriedReads += s.eng.Counters().RetriedReads
	}
	e.viewMu.RUnlock()
	return c
}

// FlushStats returns the per-flush cost log (deterministic I/O deltas),
// in flush order.
func (e *NRTEngine) FlushStats() []FlushStat {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	return append([]FlushStat(nil), e.flushLog...)
}

// Health reports serving fitness: an NRT engine keeps serving queries
// even with ingest write-broken, so Serving mirrors the segment
// engines' breakers (all open means nothing can be fetched).
func (e *NRTEngine) Health() Health { return healthOf(e.NumDocs(), e.breakerSnaps()) }

// breakerSnaps collects every segment's breaker snapshots, keyed
// segment/pool.
func (e *NRTEngine) breakerSnaps() map[string]resilience.BreakerSnap {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	var out map[string]resilience.BreakerSnap
	for _, s := range e.segs {
		for pool, b := range s.eng.breakerSnaps() {
			if out == nil {
				out = make(map[string]resilience.BreakerSnap)
			}
			out[s.name+"/"+pool] = b
		}
	}
	return out
}

// Snapshot captures the engine's aggregate state, including the NRT
// write-path block.
func (e *NRTEngine) Snapshot() Snapshot {
	c := e.Counters()
	buffers := make(map[string]mneme.BufferStats)
	st := &NRTStats{}
	e.viewMu.RLock()
	for _, s := range e.segs {
		for pool, bs := range s.eng.backend.BufferStats() {
			buffers[s.name+"/"+pool] = bs
		}
		st.Segments = append(st.Segments, NRTSegStat{
			Name: s.name, Base: s.base, Docs: s.docs, BaseCollection: s.baseColl,
		})
	}
	e.viewMu.RUnlock()
	e.ingestMu.Lock()
	st.Gen, st.WalGen = e.gen, e.walGen
	if e.wal != nil {
		st.WalEntries = e.wal.Entries()
	}
	st.Ingested = e.ingested
	st.Flushes, st.Compactions = e.flushes, e.compacts
	st.WalTruncFrames, st.WalTruncBytes = e.walTruncFrames, e.walTruncBytes
	e.ingestMu.Unlock()
	memDocs, _, memBytes := e.mem.stats()
	st.MemDocs, st.MemBytes = memDocs, memBytes
	if len(buffers) == 0 {
		buffers = nil
	}
	return Snapshot{
		Backend:        e.kind.String(),
		Counters:       c,
		IO:             e.fs.Stats(),
		Buffers:        buffers,
		CorruptRecords: c.CorruptRecords,
		Metrics:        e.met.reg.Snapshot(),
		Resilience:     e.resilienceStats(c, e.breakerSnaps),
		NRT:            st,
		Cache:          e.cacheStats(),
	}
}
