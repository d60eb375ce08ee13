// Package neodb is the Neo4j-analog graph database engine: a fully
// transactional property-graph store built on fixed-size record files
// (internal/storage), a page cache (internal/pagecache), a write-ahead
// log (internal/wal) and index structures (internal/idx).
//
// The engine reproduces the mechanisms behind the paper's Neo4j
// observations:
//
//   - relationships are records in per-node doubly-linked chains, so a
//     traversal hop costs one record fetch — a "db hit";
//   - all record fetches go through a page cache, so cold-cache first
//     runs are slow and warm up as the working set becomes resident;
//   - schema indexes (hash) accelerate `MATCH (u:user {uid: $id})`
//     seeks, and a label scan store backs bare label matches;
//   - commits are redo-logged to the WAL before store pages are
//     mutated, with idempotent replay on recovery;
//   - a batch import tool (importer.go) bypasses transactions, then
//     performs the dense-node degree computation and post-import index
//     build the paper times.
//
// The declarative query layer lives in internal/cypher; the imperative
// traversal framework in traverse.go.
package neodb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"twigraph/internal/graph"
	"twigraph/internal/idx"
	"twigraph/internal/obs"
	"twigraph/internal/olog"
	"twigraph/internal/pagecache"
	"twigraph/internal/qstats"
	"twigraph/internal/storage"
	"twigraph/internal/vfs"
	"twigraph/internal/wal"
)

// Engine-specific counter names registered on top of the obs core set.
const (
	CWALAppends       = "wal_appends"
	CWALSyncs         = "wal_syncs"
	CWALSyncFailures  = "wal_sync_failures"
	CTxBegin          = "tx_begin"
	CTxCommit         = "tx_commit"
	CTxAbort          = "tx_abort"
	CRelChainHops     = "rel_chain_hops"
	CDenseGroupScans  = "dense_group_scans"
	CQueriesCancelled = "queries_cancelled"
	CQueriesTimedOut  = "queries_timed_out"
	CWALGroupCommits  = "wal_group_commits"
)

// Config tunes an engine instance.
type Config struct {
	// CachePages is the page-cache capacity per store file; 0 means
	// DefaultCachePages.
	CachePages int
	// SyncCommits fsyncs the WAL on every commit (durable but slow);
	// off by default, as in the paper's import-oriented setup.
	SyncCommits bool
	// DenseThreshold is the degree at which a node switches to
	// relationship groups. It belongs to the store: catalog.json records
	// it when the store is created, and 0 means whatever the store
	// recorded (DefaultDenseThreshold for a new store). A different
	// non-zero value on a non-empty store makes Open fail.
	DenseThreshold int
	// FS is the filesystem every store file, index snapshot, catalog
	// write and WAL operation goes through; nil means the operating
	// system. Fault-injection and crash tests substitute a vfs.FaultFS.
	FS vfs.FS
	// ImportWorkers sets the bulk-import pipeline's parse/resolve worker
	// count: 0 means GOMAXPROCS, 1 forces the serial path. The final
	// stores are byte-identical at any setting.
	ImportWorkers int
	// ImportGroupCommit redo-logs each import batch as one WAL frame
	// followed by one fsync, making completed batches durable during the
	// import. Off by default: the classic import path defers all
	// durability to the final checkpoint, and a crash mid-import is
	// detected by integrity checks rather than recovered.
	ImportGroupCommit bool
	// ImportSpillDir, when set, spills each label's external-id map to a
	// sorted segment file in that directory after its node phase, so the
	// edge phase resolves endpoints by binary-searching disk instead of
	// holding every id in memory — the paper-scale ingest path.
	ImportSpillDir string
}

// DefaultCachePages gives each store file a 32 MiB cache by default.
const DefaultCachePages = 4096

// DB is an embedded transactional property-graph database. Reads may
// run concurrently; writes are serialised by a single-writer lock held
// for the duration of each write transaction's commit.
type DB struct {
	dir  string
	cfg  Config
	fsys vfs.FS

	nodes  storage.NodeStore
	rels   storage.RelStore
	props  storage.PropStore
	strs   storage.DynStore
	groups storage.GroupStore
	log    *wal.Log

	readers atomic.Int64 // see readers.go

	catalogMu sync.RWMutex
	labels    *nameTable
	relTypes  *nameTable
	propKeys  *nameTable
	// catalogDirty is set when a name or an index is created and cleared
	// when catalog.json is written. Tx.Commit writes a dirty catalog
	// before it logs, so no durable commit refers to a name the file
	// lacks.
	catalogDirty  atomic.Bool
	catalogFileMu sync.Mutex        // serialises catalog.json writes
	savedRelStats map[string]uint64 // relationship counts as catalog.json holds them

	labelScan *idx.LabelScan
	indexMu   sync.RWMutex
	indexes   map[indexKey]*idx.HashIndex

	statsMu  sync.RWMutex
	relStats map[graph.TypeID]uint64 // per-type relationship counts

	// Observability: the registry carries every engine counter; the
	// tracer carries query spans. Hot-path counters are cached here so
	// traversal loops skip the registry map lookup.
	reg         *obs.Registry
	tracer      *obs.Tracer
	traceBuf    *obs.TraceBuffer // timeline export sink; disabled until enabled
	stats       *qstats.Stats    // per-fingerprint statement statistics
	logger      *olog.Logger     // structured JSON log (off until leveled up)
	cFetches    *obs.Counter
	cFaults     *obs.Counter
	cChainHops  *obs.Counter
	cGroupScans *obs.Counter
	cTxBegin    *obs.Counter
	cTxCommit   *obs.Counter
	cTxAbort    *obs.Counter
	cQCancelled *obs.Counter
	cQTimedOut  *obs.Counter

	writeMu    sync.Mutex // single writer
	closed     bool
	recovering bool // WAL replay in progress (set only inside Open)

	// groupCache memoises (node, relationship type) → group id for dense
	// nodes. Non-nil only during single-writer phases (bulk import's edge
	// stage and WAL replay); nil in normal operation, where groupFor
	// walks the chain as usual.
	groupCache map[groupCacheKey]uint64
}

type indexKey struct {
	label graph.TypeID
	key   graph.AttrID
}

// nameTable is a bidirectional name <-> id registry for labels,
// relationship types and property keys.
type nameTable struct {
	byName map[string]uint32
	byID   []string     // index = id-1
	dirty  *atomic.Bool // set on every new name: the catalog must be written
}

func newNameTable(dirty *atomic.Bool) *nameTable {
	return &nameTable{byName: make(map[string]uint32), dirty: dirty}
}

func (t *nameTable) id(name string) (uint32, bool) {
	id, ok := t.byName[name]
	return id, ok
}

func (t *nameTable) idOrCreate(name string) uint32 {
	if id, ok := t.byName[name]; ok {
		return id
	}
	t.byID = append(t.byID, name)
	id := uint32(len(t.byID))
	t.byName[name] = id
	t.dirty.Store(true)
	return id
}

func (t *nameTable) name(id uint32) string {
	if id == 0 || int(id) > len(t.byID) {
		return ""
	}
	return t.byID[id-1]
}

// Open opens or creates a database in dir.
func Open(dir string, cfg Config) (*DB, error) {
	if cfg.CachePages <= 0 {
		cfg.CachePages = DefaultCachePages
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{
		dir:      dir,
		cfg:      cfg,
		fsys:     fsys,
		indexes:  make(map[indexKey]*idx.HashIndex),
		relStats: make(map[graph.TypeID]uint64),
		reg:      obs.NewEngineRegistry(),
		tracer:   obs.NewTracer(),
		traceBuf: obs.NewTraceBuffer(obs.DefaultTraceEvents),
		stats:    qstats.NewStats(0),
		logger:   olog.New("neo"),
	}
	db.labels = newNameTable(&db.catalogDirty)
	db.relTypes = newNameTable(&db.catalogDirty)
	db.propKeys = newNameTable(&db.catalogDirty)
	db.cFetches = db.reg.Counter(obs.CRecordFetches)
	db.cFaults = db.reg.Counter(obs.CPageFaults)
	db.cChainHops = db.reg.Counter(CRelChainHops)
	db.cGroupScans = db.reg.Counter(CDenseGroupScans)
	db.cTxBegin = db.reg.Counter(CTxBegin)
	db.cTxCommit = db.reg.Counter(CTxCommit)
	db.cTxAbort = db.reg.Counter(CTxAbort)
	db.cQCancelled = db.reg.Counter(CQueriesCancelled)
	db.cQTimedOut = db.reg.Counter(CQueriesTimedOut)
	db.tracer.Watch(obs.CRecordFetches, db.cFetches)
	db.tracer.Watch(obs.CPageFaults, db.cFaults)
	db.tracer.SetSink(db.traceBuf)
	// Every recorded query accumulates the same resource deltas the
	// tracer watches per span.
	db.stats.Watch(obs.CRecordFetches, db.cFetches)
	db.stats.Watch(obs.CPageFaults, db.cFaults)
	// Slow-query ring entries also surface as structured log lines,
	// carrying the same query ID as the ring and the exported trace.
	db.tracer.SetOnSlow(db.logger.SlowQuery)
	var err error
	if db.nodes, err = storage.OpenNodeStoreFS(fsys, dir, cfg.CachePages); err != nil {
		return nil, err
	}
	if db.rels, err = storage.OpenRelStoreFS(fsys, dir, cfg.CachePages); err != nil {
		db.nodes.Close()
		return nil, err
	}
	if db.props, err = storage.OpenPropStoreFS(fsys, dir, cfg.CachePages); err != nil {
		db.closePartial()
		return nil, err
	}
	if db.strs, err = storage.OpenDynStoreFS(fsys, dir, cfg.CachePages); err != nil {
		db.closePartial()
		return nil, err
	}
	if db.groups, err = storage.OpenGroupStoreFS(fsys, dir, cfg.CachePages); err != nil {
		db.closePartial()
		return nil, err
	}
	// All five stores share one set of registry counters, so the
	// aggregate equals what DBHits/PageFaults used to sum by hand.
	cacheIns := pagecache.Instruments{
		Hits:      db.reg.Counter(obs.CPageHits),
		Faults:    db.cFaults,
		Evictions: db.reg.Counter(obs.CPageEvictions),
		Flushes:   db.reg.Counter(obs.CPageFlushes),
		Tracer:    db.tracer,
		Trace:     db.traceBuf,
	}
	for _, f := range []*storage.RecordFile{
		db.nodes.RecordFile, db.rels.RecordFile, db.props.RecordFile,
		db.strs.RecordFile, db.groups.RecordFile,
	} {
		f.Instrument(db.cFetches, cacheIns)
	}
	storedThreshold, err := db.loadCatalog()
	if err != nil {
		db.closePartial()
		return nil, err
	}
	if db.labelScan, err = idx.OpenLabelScanFS(fsys, filepath.Join(dir, "labelscan.idx")); err != nil {
		db.closePartial()
		return nil, err
	}
	unsaved, err := db.loadIndexes()
	if err != nil {
		db.closePartial()
		return nil, err
	}
	if db.log, err = wal.OpenFS(fsys, filepath.Join(dir, "neodb.wal")); err != nil {
		db.closePartial()
		return nil, err
	}
	db.log.Instrument(db.reg.Counter(CWALAppends), db.reg.Counter(CWALSyncs), db.reg.Counter(CWALSyncFailures))
	db.log.TraceTo(db.traceBuf)
	if err = db.settleDenseThreshold(storedThreshold, cfg.DenseThreshold); err != nil {
		// Not Close: its checkpoint would write the refused threshold.
		db.log.Close()
		db.closePartial()
		return nil, err
	}
	if err = db.recover(); err != nil {
		db.Close()
		return nil, err
	}
	for _, k := range unsaved {
		if err = db.populateIndex(db.indexes[k], k); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) closePartial() {
	if db.nodes.RecordFile != nil {
		db.nodes.Close()
	}
	if db.rels.RecordFile != nil {
		db.rels.Close()
	}
	if db.props.RecordFile != nil {
		db.props.Close()
	}
	if db.strs.RecordFile != nil {
		db.strs.Close()
	}
	if db.groups.RecordFile != nil {
		db.groups.Close()
	}
}

// catalogFile is the on-disk JSON catalog: name tables, declared
// indexes, and statistics.
type catalogFile struct {
	Labels   []string          `json:"labels"`
	RelTypes []string          `json:"rel_types"`
	PropKeys []string          `json:"prop_keys"`
	Indexes  [][2]uint32       `json:"indexes"` // (label, propKey) pairs
	RelStats map[string]uint64 `json:"rel_stats"`
	// DenseThreshold is the store's dense-node cutoff; 0 (absent) means
	// none was recorded yet.
	DenseThreshold int `json:"dense_threshold,omitempty"`
}

func (db *DB) catalogPath() string { return filepath.Join(db.dir, "catalog.json") }

// loadCatalog reads catalog.json, if there is one, and returns the
// dense threshold it records (0 if none).
func (db *DB) loadCatalog() (int, error) {
	data, err := vfs.ReadFile(db.fsys, db.catalogPath())
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	var cf catalogFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return 0, fmt.Errorf("neodb: corrupt catalog: %w", err)
	}
	for _, n := range cf.Labels {
		db.labels.idOrCreate(n)
	}
	for _, n := range cf.RelTypes {
		db.relTypes.idOrCreate(n)
	}
	for _, n := range cf.PropKeys {
		db.propKeys.idOrCreate(n)
	}
	for _, pair := range cf.Indexes {
		k := indexKey{graph.TypeID(pair[0]), graph.AttrID(pair[1])}
		db.indexes[k] = nil // opened in loadIndexes
	}
	for name, n := range cf.RelStats {
		if id, ok := db.relTypes.id(name); ok {
			db.relStats[graph.TypeID(id)] = n
		}
	}
	db.savedRelStats = cf.RelStats
	db.catalogDirty.Store(false) // the names just read are the file's
	return cf.DenseThreshold, nil
}

// settleDenseThreshold fixes the dense threshold before WAL replay, so
// that replay and every later write build the layout the store was
// built with. stored is the catalog's value (0 if none), want the
// caller's Config value (0 = the store's). A new or empty store records
// its threshold in the catalog at once.
func (db *DB) settleDenseThreshold(stored, want int) error {
	if want <= 0 {
		want = stored
	}
	if want == stored && stored > 0 {
		db.cfg.DenseThreshold = stored
		return nil
	}
	empty := db.nodes.HighWater() == 0 && db.rels.HighWater() == 0 && db.log.Offset() == 0
	if stored > 0 && !empty {
		return fmt.Errorf("neodb: store in %s has dense threshold %d, config asks for %d", db.dir, stored, want)
	}
	if want <= 0 {
		want = DefaultDenseThreshold
	}
	db.cfg.DenseThreshold = want
	return db.saveCatalog()
}

// saveCatalog writes catalog.json with every field current: a
// checkpoint's, a bulk import's or a new store's catalog.
func (db *DB) saveCatalog() error { return db.writeCatalog(true) }

// writeCatalog writes catalog.json: names, indexes and the dense
// threshold as they stand, and the relationship counts as they stand
// when withStats is set, else as the file last recorded them. Counts
// are current only where the stores hold every counted edge (a
// checkpoint): WAL replay re-counts each edge it re-creates, so counts
// taken between checkpoints would count those edges twice.
func (db *DB) writeCatalog(withStats bool) (err error) {
	db.catalogFileMu.Lock()
	defer db.catalogFileMu.Unlock()
	db.catalogMu.RLock()
	// Cleared under the read lock: a name created after the snapshot
	// sets it again, and a failed write restores it (below).
	db.catalogDirty.Store(false)
	db.statsMu.RLock()
	db.indexMu.RLock()
	cf := catalogFile{
		Labels:         append([]string(nil), db.labels.byID...),
		RelTypes:       append([]string(nil), db.relTypes.byID...),
		PropKeys:       append([]string(nil), db.propKeys.byID...),
		RelStats:       db.savedRelStats,
		DenseThreshold: db.cfg.DenseThreshold,
	}
	for k := range db.indexes {
		cf.Indexes = append(cf.Indexes, [2]uint32{uint32(k.label), uint32(k.key)})
	}
	if withStats {
		cf.RelStats = make(map[string]uint64, len(db.relStats))
		for id, n := range db.relStats {
			cf.RelStats[db.relTypes.name(uint32(id))] = n
		}
	}
	db.indexMu.RUnlock()
	db.statsMu.RUnlock()
	db.catalogMu.RUnlock()
	defer func() {
		if err != nil {
			db.catalogDirty.Store(true)
		} else {
			db.savedRelStats = cf.RelStats
		}
	}()

	data, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return err
	}
	tmp := db.catalogPath() + ".tmp"
	f, err := db.fsys.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := db.fsys.Rename(tmp, db.catalogPath()); err != nil {
		return err
	}
	db.fsys.SyncDir(db.catalogPath()) // best-effort: rename durability
	return nil
}

func (db *DB) indexPath(k indexKey) string {
	return filepath.Join(db.dir, fmt.Sprintf("index-%d-%d.idx", k.label, k.key))
}

// loadIndexes opens every index the catalog declares. It returns those
// with no file yet: declared after the last checkpoint, they hold only
// what WAL replay adds, and are filled from the label scan after it.
func (db *DB) loadIndexes() (unsaved []indexKey, err error) {
	for k := range db.indexes {
		if f, err := vfs.Open(db.fsys, db.indexPath(k)); err == nil {
			f.Close()
		} else if os.IsNotExist(err) {
			unsaved = append(unsaved, k)
		}
		ix, err := idx.OpenHashIndexFS(db.fsys, db.indexPath(k))
		if err != nil {
			return nil, err
		}
		db.indexes[k] = ix
	}
	return unsaved, nil
}

// ---------- catalog API ----------

// Label returns the id for a node label, creating it on first use.
func (db *DB) Label(name string) graph.TypeID {
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	return graph.TypeID(db.labels.idOrCreate(name))
}

// LabelID returns the id of an existing label, or NilType.
func (db *DB) LabelID(name string) graph.TypeID {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	id, _ := db.labels.id(name)
	return graph.TypeID(id)
}

// LabelName returns the name of a label id.
func (db *DB) LabelName(id graph.TypeID) string {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	return db.labels.name(uint32(id))
}

// RelType returns the id for a relationship type, creating it on first
// use.
func (db *DB) RelType(name string) graph.TypeID {
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	return graph.TypeID(db.relTypes.idOrCreate(name))
}

// RelTypeID returns the id of an existing relationship type, or
// NilType.
func (db *DB) RelTypeID(name string) graph.TypeID {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	id, _ := db.relTypes.id(name)
	return graph.TypeID(id)
}

// RelTypeName returns the name of a relationship type id.
func (db *DB) RelTypeName(id graph.TypeID) string {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	return db.relTypes.name(uint32(id))
}

// PropKey returns the id for a property key, creating it on first use.
func (db *DB) PropKey(name string) graph.AttrID {
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	return graph.AttrID(db.propKeys.idOrCreate(name))
}

// PropKeyID returns the id of an existing property key, or NilAttr.
func (db *DB) PropKeyID(name string) graph.AttrID {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	id, _ := db.propKeys.id(name)
	return graph.AttrID(id)
}

// PropKeyName returns the name of a property key id.
func (db *DB) PropKeyName(id graph.AttrID) string {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	return db.propKeys.name(uint32(id))
}

// ---------- index management ----------

// CreateIndex declares a schema index on (label, property key). If the
// store already has data, the index is populated by a label scan — the
// post-import index build the paper times at about eight minutes.
func (db *DB) CreateIndex(label graph.TypeID, key graph.AttrID) error {
	db.indexMu.Lock()
	k := indexKey{label, key}
	if _, exists := db.indexes[k]; exists {
		db.indexMu.Unlock()
		return nil
	}
	ix := idx.NewHashIndexFS(db.fsys, db.indexPath(k))
	db.indexes[k] = ix
	db.catalogDirty.Store(true)
	db.indexMu.Unlock()
	return db.populateIndex(ix, k)
}

// populateIndex adds the key's value on every node of the label to ix.
func (db *DB) populateIndex(ix *idx.HashIndex, k indexKey) error {
	nodes := db.labelScan.Nodes(k.label)
	if nodes == nil {
		return nil
	}
	ids := make([]graph.NodeID, 0, nodes.Cardinality())
	nodes.ForEach(func(id uint64) bool {
		ids = append(ids, graph.NodeID(id))
		return true
	})
	rd := db.Reader()
	defer rd.Close()
	var scanErr error
	rd.eachNodeProp(ids, k.key, func(id graph.NodeID, v graph.Value, err error) bool {
		if err != nil {
			scanErr = err
			return false
		}
		if !v.IsNil() {
			ix.Add(v, uint64(id))
		}
		return true
	})
	return scanErr
}

// index returns the index for (label, key), or nil.
func (db *DB) index(label graph.TypeID, key graph.AttrID) *idx.HashIndex {
	db.indexMu.RLock()
	defer db.indexMu.RUnlock()
	return db.indexes[indexKey{label, key}]
}

// ---------- statistics ----------

// LabelCount returns the number of nodes with the label.
func (db *DB) LabelCount(label graph.TypeID) int {
	return db.labelScan.Count(label)
}

// RelTypeCount returns the number of relationships of the type.
func (db *DB) RelTypeCount(t graph.TypeID) uint64 {
	db.statsMu.RLock()
	defer db.statsMu.RUnlock()
	return db.relStats[t]
}

// NodeCount returns the number of live nodes.
func (db *DB) NodeCount() uint64 { return db.nodes.Count() }

// RelCount returns the number of live relationships.
func (db *DB) RelCount() uint64 { return db.rels.Count() }

// RecordFetches returns the cumulative *logical* record-fetch count
// across all stores — the "db hits" unit the paper reads from Cypher's
// profiler. One fetch may or may not touch disk; the physical side is
// PageFaults.
func (db *DB) RecordFetches() uint64 { return db.cFetches.Load() }

// PageFaults returns the cumulative *physical* page-fault count across
// all store page caches — the cold-cache warm-up cost, distinct from
// the logical fetch count above.
func (db *DB) PageFaults() uint64 { return db.cFaults.Load() }

// DBHits is a deprecated alias of RecordFetches, kept for callers that
// predate the logical/physical split.
//
// Deprecated: use RecordFetches (logical) or PageFaults (physical).
func (db *DB) DBHits() uint64 { return db.RecordFetches() }

// CacheFaults is a deprecated alias of PageFaults.
//
// Deprecated: use PageFaults.
func (db *DB) CacheFaults() uint64 { return db.PageFaults() }

// Obs returns the engine's observability registry.
func (db *DB) Obs() *obs.Registry { return db.reg }

// Tracer returns the engine's query tracer.
func (db *DB) Tracer() *obs.Tracer { return db.tracer }

// Trace returns the engine's trace-event buffer. It is created disabled;
// timeline export surfaces (twibench -trace, twiql :trace export) enable
// it via SetEnabled.
func (db *DB) Trace() *obs.TraceBuffer { return db.traceBuf }

// QueryStats returns the engine's per-fingerprint statement
// statistics registry (the /querystats and `:top` source).
func (db *DB) QueryStats() *qstats.Stats { return db.stats }

// Logger returns the engine's structured logger (level "off" until a
// surface such as twiql's :log raises it).
func (db *DB) Logger() *olog.Logger { return db.logger }

// Health reports store liveness: nil while the database is open and its
// WAL is unpoisoned. The telemetry /healthz endpoint surfaces this.
func (db *DB) Health() error {
	db.writeMu.Lock()
	closed := db.closed
	db.writeMu.Unlock()
	if closed {
		return fmt.Errorf("neodb: closed")
	}
	return db.log.Poisoned()
}

// ResetCounters zeroes every observability counter: the shared
// registry (the db-hit counter among them) and each store's page-cache
// stats. Call it between experiment phases so cold-vs-warm comparisons
// are not contaminated by import-time activity (mirrors
// pagecache.ResetStats).
func (db *DB) ResetCounters() {
	db.reg.Reset()
	db.stats.Reset()
	for _, f := range []*storage.RecordFile{
		db.nodes.RecordFile, db.rels.RecordFile, db.props.RecordFile,
		db.strs.RecordFile, db.groups.RecordFile,
	} {
		f.ResetCounters()
	}
}

// PinnedPages returns how many cached pages of the store files are
// held pinned: zero whenever no read is running.
func (db *DB) PinnedPages() int {
	n := 0
	for _, f := range []*storage.RecordFile{
		db.nodes.RecordFile, db.rels.RecordFile, db.props.RecordFile,
		db.strs.RecordFile, db.groups.RecordFile,
	} {
		n += f.Pinned()
	}
	return n
}

// CoolCaches evicts every page cache (cold-cache experiments).
func (db *DB) CoolCaches() error {
	for _, f := range []interface{ Cool() error }{db.nodes, db.rels, db.props, db.strs, db.groups} {
		if err := f.Cool(); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes all stores, indexes and the catalog to disk and
// truncates the WAL (checkpoint). A poisoned log refuses the
// checkpoint before any store is touched: once an fsync on the WAL has
// failed, the durability chain is broken and advancing the durable
// store state (let alone truncating the log) could persist effects of
// transactions whose commit was never made durable.
func (db *DB) Sync() error {
	if err := db.log.Poisoned(); err != nil {
		return fmt.Errorf("%w: refusing checkpoint", wal.ErrPoisoned)
	}
	for _, f := range []interface{ Sync() error }{db.nodes, db.rels, db.props, db.strs, db.groups} {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if err := db.labelScan.Sync(); err != nil {
		return err
	}
	db.indexMu.RLock()
	for _, ix := range db.indexes {
		if err := ix.Sync(); err != nil {
			db.indexMu.RUnlock()
			return err
		}
	}
	db.indexMu.RUnlock()
	if err := db.saveCatalog(); err != nil {
		return err
	}
	return db.log.Truncate()
}

// Close checkpoints and closes the database. Every store and the log
// are closed even when earlier steps fail; the first error is returned.
// A Reader not given back — HoldReader without ReleaseReader, or
// BorrowReaders without ReturnReader — is reported as such an error.
func (db *DB) Close() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	if v := db.readers.Load(); v != 0 {
		firstErr = fmt.Errorf("neodb: closed with %d held and %d borrowed Readers not given back", v%borrowed, v/borrowed)
	}
	if err := db.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, f := range []interface{ Close() error }{db.nodes, db.rels, db.props, db.strs, db.groups} {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := db.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }
