// Package core is the integrated system: the INQUERY retrieval engine
// wired to an interchangeable inverted-file storage backend — the
// original custom B-tree keyed file, or the Mneme persistent object
// store with the paper's three-pool partition. The package owns index
// construction, engine open/search, and the incremental-update path
// that Mneme's data model enables.
package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/btree"
	"repro/internal/lexicon"
	"repro/internal/mneme"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// RecordStreamer is implemented by backends that can stream a record's
// bytes incrementally instead of materializing them. The Mneme backend
// streams chunked records chunk by chunk.
type RecordStreamer interface {
	// StreamRecord returns a reader over the record bytes, or ok=false
	// when the record must be fetched whole.
	StreamRecord(ref uint64) (r io.Reader, ok bool)
}

// RecordRanger is implemented by backends that can serve a record's
// bytes by random-access range, faulting in only the storage chunks the
// requested ranges overlap. The Mneme backend implements it for
// indexed chunked records; block-format readers use it to skip chunks
// along with the blocks they hold.
type RecordRanger interface {
	// RangeRecord returns range access over the record, or ok=false
	// when the ref is not an indexed chunked record.
	RangeRecord(ref uint64) (cr *mneme.ChunkRange, ok bool, err error)
}

// BackendKind selects the inverted-file storage manager.
type BackendKind uint8

const (
	// BackendBTree is the original custom keyed-file package.
	BackendBTree BackendKind = iota + 1
	// BackendMneme is the persistent object store.
	BackendMneme
)

// String names the backend kind.
func (k BackendKind) String() string {
	switch k {
	case BackendBTree:
		return "btree"
	case BackendMneme:
		return "mneme"
	}
	return "invalid"
}

// ParseBackendKind maps a backend name ("btree" or "mneme") to its
// kind. It is the inverse of String and the one place command-line
// tools should translate user-supplied backend names.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "btree":
		return BackendBTree, nil
	case "mneme":
		return BackendMneme, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (want btree or mneme)", s)
}

// MarshalText implements encoding.TextMarshaler.
func (k BackendKind) MarshalText() ([]byte, error) {
	if k != BackendBTree && k != BackendMneme {
		return nil, fmt.Errorf("core: invalid backend kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *BackendKind) UnmarshalText(text []byte) error {
	v, err := ParseBackendKind(string(text))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Pool size thresholds from the paper's analysis (§3.3): "approximately
// 50% of the inverted lists are 12 bytes or less"; "All inverted lists
// larger than 4 Kbytes were allocated ... in a large object pool".
const (
	SmallListMax  = 12
	MediumListMax = 4096
)

// Mneme pool names used by the integrated system.
const (
	PoolNameSmall  = "small"
	PoolNameMedium = "medium"
	PoolNameLarge  = "large"
)

// PoolForSize returns the pool that stores a record of the given size.
func PoolForSize(n int) string {
	switch {
	case n <= SmallListMax:
		return PoolNameSmall
	case n <= MediumListMax:
		return PoolNameMedium
	default:
		return PoolNameLarge
	}
}

// BufferPlan allocates buffer capacity to the three pools. Zero values
// disable caching for the pool ("Mneme, No Cache").
type BufferPlan struct {
	SmallBytes  int64
	MediumBytes int64
	LargeBytes  int64
}

// NoCache is the all-zero buffer plan.
var NoCache = BufferPlan{}

// PlanForMaxList is the paper's Table 2 buffer-plan rule as a function
// of the collection's largest inverted-list record: large = 3x it,
// medium = 9% of large but at least 3 medium segments (the CACM rule),
// small = 3 small segments.
func PlanForMaxList(maxList int64) BufferPlan {
	large := 3 * maxList
	return BufferPlan{
		SmallBytes:  3 * 4096,
		MediumBytes: max(large*9/100, 3*8192),
		LargeBytes:  large,
	}
}

// PlanFromLexicon applies PlanForMaxList to a built collection's stored
// lexicon. It reads only the lexicon file and opens no engine, so the
// store is never written. A collection without a readable lexicon gets
// a fixed 1 MB large-pool plan.
func PlanFromLexicon(fs *vfs.FS, name string) BufferPlan {
	dict, err := loadLexicon(fs, name)
	if err != nil {
		return BufferPlan{SmallBytes: 3 * 4096, MediumBytes: 3 * 8192, LargeBytes: 1 << 20}
	}
	var maxList int64
	dict.Range(func(e *lexicon.Entry) bool {
		maxList = max(maxList, int64(e.ListBytes))
		return true
	})
	return PlanForMaxList(maxList)
}

// ErrNoUpdate is returned by backends that do not support incremental
// modification. The paper: "addition or deletion of a single document to
// or from an existing collection is not directly supported [by the
// B-tree version] and requires the entire document collection to be
// re-indexed".
var ErrNoUpdate = errors.New("core: backend does not support incremental update")

// Pin is a per-caller handle over record reservations made by
// Backend.Reserve. Releasing it drops exactly the pins it made, so
// concurrent queries' reservations are independent.
type Pin interface {
	Release()
}

// noPin is the empty reservation, used when reservation is disabled or
// the backend has no record cache.
type noPin struct{}

func (noPin) Release() {}

// Backend abstracts the inverted-file record manager. Refs are opaque
// handles stored in the hash dictionary: a term id key for the B-tree, a
// Mneme object identifier for the object store.
type Backend interface {
	Kind() BackendKind
	// Fetch returns the record bytes for a ref.
	Fetch(ref uint64) ([]byte, error)
	// Reserve pins already-resident records (Mneme only; no-op for the
	// B-tree, which has no record cache) and returns the handle that
	// releases them.
	Reserve(refs []uint64) Pin
	// DropCaches empties any record caches (between measured runs).
	DropCaches() error
	// BufferStats reports per-pool buffer counters (empty for B-tree).
	BufferStats() map[string]mneme.BufferStats
	// ResetBufferStats zeroes the counters.
	ResetBufferStats()
	// SizeBytes is the on-disk size of the index file.
	SizeBytes() int64
	// Store allocates a new record and returns its ref.
	Store(rec []byte) (uint64, error)
	// Update replaces a record, possibly moving it (the returned ref
	// supersedes the old one). Backends may return ErrNoUpdate.
	Update(ref uint64, rec []byte) (uint64, error)
	// Remove deletes a record. Backends may return ErrNoUpdate.
	Remove(ref uint64) error
	// Flush persists backend state.
	Flush() error
	Close() error
	// SetRecorder attaches (nil detaches) a trace recorder to the
	// backend's storage layer — buffer hit/miss and fault-in spans for
	// Mneme, node-page reads for the B-tree. Recorders are for
	// single-stream diagnostic tracing only.
	SetRecorder(obs.Recorder)
}

// --- B-tree backend ---

// btreeBackend wraps the custom keyed-file package. It performs no
// user-space caching of inverted-list records across accesses, exactly
// like the original INQUERY.
type btreeBackend struct {
	tree *btree.Tree
}

// CreateBTreeBackend makes an empty B-tree index file.
func CreateBTreeBackend(fs *vfs.FS, name string) (*btreeBackend, *btree.Tree, error) {
	tr, err := btree.Create(fs, name, btree.Options{})
	if err != nil {
		return nil, nil, err
	}
	return &btreeBackend{tree: tr}, tr, nil
}

// OpenBTreeBackend opens an existing B-tree index file.
func OpenBTreeBackend(fs *vfs.FS, name string) (Backend, error) {
	tr, err := btree.Open(fs, name, btree.Options{})
	if err != nil {
		return nil, err
	}
	return &btreeBackend{tree: tr}, nil
}

func (b *btreeBackend) Kind() BackendKind { return BackendBTree }

func (b *btreeBackend) Fetch(ref uint64) ([]byte, error) {
	rec, ok, err := b.tree.Lookup(uint32(ref))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: btree record %d missing", ref)
	}
	return rec, nil
}

func (b *btreeBackend) Reserve([]uint64) Pin                      { return noPin{} }
func (b *btreeBackend) DropCaches() error                         { return nil }
func (b *btreeBackend) BufferStats() map[string]mneme.BufferStats { return nil }
func (b *btreeBackend) ResetBufferStats()                         {}
func (b *btreeBackend) SizeBytes() int64                          { return b.tree.SizeBytes() }
func (b *btreeBackend) Store([]byte) (uint64, error)              { return 0, ErrNoUpdate }
func (b *btreeBackend) Update(uint64, []byte) (uint64, error)     { return 0, ErrNoUpdate }
func (b *btreeBackend) Remove(uint64) error                       { return ErrNoUpdate }
func (b *btreeBackend) Flush() error                              { return b.tree.Sync() }
func (b *btreeBackend) Close() error                              { return b.tree.Close() }
func (b *btreeBackend) SetRecorder(r obs.Recorder)                { b.tree.SetRecorder(r) }

// --- Mneme backend ---

// chunkedRefBit flags a dictionary ref whose record is stored as a
// linked list of chunk objects (inter-object references) rather than a
// single contiguous object — the paper's §6 proposal for breaking
// large inverted lists into manageable pieces. chunkedV2RefBit flags
// the indexed variant: the head object carries a chunk table, so a
// reader can fault in exactly the chunks a byte range overlaps instead
// of walking the list front to back. New chunked records are written
// indexed; linked refs from older collections remain readable.
const (
	chunkedRefBit   = uint64(1) << 63
	chunkedV2RefBit = uint64(1) << 62
)

// mnemeBackend wraps the persistent object store with the paper's
// three-pool configuration.
type mnemeBackend struct {
	store *mneme.Store
	// chunkBytes > 0 stores records larger than MediumListMax as chunk
	// lists with this payload size per chunk.
	chunkBytes int
}

// MnemeConfig returns the paper's store layout: 16-byte slots packed 255
// to a 4 Kbyte segment (small), 8 Kbyte packed segments (medium), and
// one segment per object (large), with the given buffer plan.
func MnemeConfig(plan BufferPlan) mneme.Config {
	return mneme.Config{Pools: []mneme.PoolConfig{
		{Name: PoolNameSmall, Kind: mneme.PoolSmall, SegmentBytes: 4096, SlotBytes: 16, BufferBytes: plan.SmallBytes},
		{Name: PoolNameMedium, Kind: mneme.PoolMedium, SegmentBytes: 8192, BufferBytes: plan.MediumBytes},
		{Name: PoolNameLarge, Kind: mneme.PoolLarge, BufferBytes: plan.LargeBytes},
	}}
}

// SinglePoolConfig is the ablation layout: one medium pool takes every
// record (oversize records get dedicated segments), with one buffer.
func SinglePoolConfig(bufferBytes int64) mneme.Config {
	return mneme.Config{Pools: []mneme.PoolConfig{
		{Name: PoolNameMedium, Kind: mneme.PoolMedium, SegmentBytes: 8192, BufferBytes: bufferBytes},
	}}
}

// CreateMnemeBackend makes an empty Mneme index file.
func CreateMnemeBackend(fs *vfs.FS, name string, cfg mneme.Config) (*mnemeBackend, error) {
	st, err := mneme.Create(fs, name, cfg)
	if err != nil {
		return nil, err
	}
	return &mnemeBackend{store: st}, nil
}

// OpenMnemeBackend opens an existing Mneme index file, applies the
// buffer plan, and configures chunking (which must match build time).
func OpenMnemeBackend(fs *vfs.FS, name string, plan BufferPlan, chunkBytes int) (Backend, error) {
	st, err := mneme.Open(fs, name)
	if err != nil {
		return nil, err
	}
	b := &mnemeBackend{store: st, chunkBytes: chunkBytes}
	if err := b.SetBufferPlan(plan); err != nil {
		return nil, err
	}
	return b, nil
}

// SetBufferPlan adjusts buffer capacities on the open store; pools the
// store lacks (single-pool ablation) are skipped.
func (b *mnemeBackend) SetBufferPlan(plan BufferPlan) error {
	caps := map[string]int64{
		PoolNameSmall:  plan.SmallBytes,
		PoolNameMedium: plan.MediumBytes,
		PoolNameLarge:  plan.LargeBytes,
	}
	for _, name := range b.store.PoolNames() {
		if err := b.store.SetBufferCapacity(name, caps[name]); err != nil {
			return err
		}
	}
	return nil
}

// Mneme exposes the underlying object store (for experiments and tools).
func (b *mnemeBackend) Mneme() *mneme.Store { return b.store }

// SetChunking enables chunked storage for records above MediumListMax,
// with the given payload bytes per chunk. Build and open must agree.
func (b *mnemeBackend) SetChunking(chunkBytes int) { b.chunkBytes = chunkBytes }

// mnemeID converts a dictionary ref to an object identifier.
func mnemeID(ref uint64) mneme.ObjectID {
	return mneme.ObjectID(ref &^ (chunkedRefBit | chunkedV2RefBit))
}

// isChunked reports whether a ref names a linked chunked record.
func isChunked(ref uint64) bool { return ref&chunkedRefBit != 0 }

// isChunkedV2 reports whether a ref names an indexed chunked record.
func isChunkedV2(ref uint64) bool { return ref&chunkedV2RefBit != 0 }

func (b *mnemeBackend) Kind() BackendKind { return BackendMneme }

func (b *mnemeBackend) Fetch(ref uint64) ([]byte, error) {
	if isChunkedV2(ref) {
		return mneme.ReadChunkedIndexed(b.store, mnemeID(ref))
	}
	if isChunked(ref) {
		return mneme.ReadChunked(b.store, mnemeID(ref))
	}
	return b.store.Get(mnemeID(ref))
}

// RangeRecord implements RecordRanger for indexed chunked records,
// returning random access over the record bytes that faults in only the
// chunks actually read.
func (b *mnemeBackend) RangeRecord(ref uint64) (*mneme.ChunkRange, bool, error) {
	if !isChunkedV2(ref) {
		return nil, false, nil
	}
	cr, err := mneme.OpenChunkRange(b.store, mnemeID(ref))
	if err != nil {
		return nil, true, err
	}
	return cr, true, nil
}

// StreamRecord implements RecordStreamer for chunked records: chunks
// are fetched lazily as the stream is consumed, so only one chunk's
// segment needs to be buffered at a time.
func (b *mnemeBackend) StreamRecord(ref uint64) (io.Reader, bool) {
	if !isChunked(ref) {
		return nil, false
	}
	return mneme.ChunkedReader(b.store, mnemeID(ref)), true
}

func (b *mnemeBackend) Reserve(refs []uint64) Pin {
	ids := make([]mneme.ObjectID, len(refs))
	for i, r := range refs {
		ids[i] = mnemeID(r) // for a chunked record this pins the head
	}
	return b.store.Reserve(ids)
}

func (b *mnemeBackend) DropCaches() error { return b.store.DropBuffers() }

func (b *mnemeBackend) BufferStats() map[string]mneme.BufferStats {
	return b.store.BufferStats()
}

func (b *mnemeBackend) ResetBufferStats() { b.store.ResetBufferStats() }

func (b *mnemeBackend) SizeBytes() int64 { return b.store.SizeBytes() }

// poolName returns the pool a record of size n belongs to, restricted
// to pools the store actually has.
func (b *mnemeBackend) poolName(n int) string {
	want := PoolForSize(n)
	for _, name := range b.store.PoolNames() {
		if name == want {
			return want
		}
	}
	// Single-pool ablation: everything goes to the medium pool.
	return b.store.PoolNames()[0]
}

func (b *mnemeBackend) Store(rec []byte) (uint64, error) {
	if b.chunkBytes > 0 && len(rec) > MediumListMax {
		head, err := mneme.WriteChunkedIndexed(b.store, b.poolName(b.chunkBytes+4), rec, b.chunkBytes)
		if err != nil {
			return 0, err
		}
		return uint64(head) | chunkedV2RefBit, nil
	}
	id, err := b.store.Allocate(b.poolName(len(rec)), rec)
	return uint64(id), err
}

// Update rewrites a record; when the new size falls into a different
// pool (or crosses the chunking threshold), the object is deleted and
// re-allocated, yielding a new ref that the caller must store back into
// the dictionary entry.
func (b *mnemeBackend) Update(ref uint64, rec []byte) (uint64, error) {
	if isChunked(ref) || isChunkedV2(ref) || (b.chunkBytes > 0 && len(rec) > MediumListMax) {
		if err := b.Remove(ref); err != nil {
			return 0, err
		}
		return b.Store(rec)
	}
	id := mnemeID(ref)
	cur, err := b.store.PoolOf(id)
	if err != nil {
		return 0, err
	}
	if b.poolName(len(rec)) == cur {
		if err := b.store.Modify(id, rec); err == nil {
			return ref, nil
		} else if !errors.Is(err, mneme.ErrWrongPool) {
			return 0, err
		}
	}
	// Cross-pool move.
	if err := b.store.Delete(id); err != nil {
		return 0, err
	}
	nid, err := b.store.Allocate(b.poolName(len(rec)), rec)
	return uint64(nid), err
}

func (b *mnemeBackend) Remove(ref uint64) error {
	if isChunked(ref) || isChunkedV2(ref) {
		// An indexed head's first word doubles as the next pointer, so
		// the linked-list walk frees both layouts.
		return mneme.DeleteChunked(b.store, mnemeID(ref))
	}
	return b.store.Delete(mnemeID(ref))
}

func (b *mnemeBackend) Flush() error { return b.store.Flush() }
func (b *mnemeBackend) Close() error { return b.store.Close() }

func (b *mnemeBackend) SetRecorder(r obs.Recorder) { b.store.SetRecorder(r) }
