// Package sparkdb is the Sparksee-analog graph database engine: an
// embedded store whose every structure is a compressed bitmap, exposing
// the imperative navigation API the paper uses — FindObject over
// attribute indexes, Neighbors and Explode returning Objects sets, and a
// native single-pair BFS shortest path.
//
// As in Sparksee (formerly DEX; Martínez-Bazan et al., IDEAS 2012):
//
//   - every node and edge is an object identified by a dense OID whose
//     high bits encode its type;
//   - each type owns a bitmap of its member OIDs;
//   - each attribute keeps an OID→value column, dense over its type's
//     sequence numbers, plus, when indexed, a value→OID-bitmap inverted
//     index;
//   - adjacency is stored as link maps from tail/head OIDs to bitmaps of
//     edge OIDs, so Neighbors and Explode are bitmap unions;
//   - there is no declarative layer: selections evaluate one predicate
//     at a time, and top-n queries must materialise and sort client-side
//     (exactly the behaviour the paper reports).
//
// The engine is held in memory and persisted as an image file (Sparksee
// memory-maps its storage; the in-memory representation preserves its
// operation costs). A configurable object cap models the research
// license limit the paper mentions ("up to 1 billion objects").
package sparkdb

import (
	"fmt"
	"sync"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/obs"
	"twigraph/internal/olog"
	"twigraph/internal/qstats"
)

// oidTypeShift positions the type id in the top bits of an OID, leaving
// 2^40 objects per type.
const oidTypeShift = 40

// DefaultMaxObjects is the research-license object cap from the paper.
const DefaultMaxObjects = 1_000_000_000

// Config tunes a DB instance.
type Config struct {
	// MaxObjects caps the total number of nodes plus edges; 0 means
	// DefaultMaxObjects.
	MaxObjects uint64
}

// Engine-specific counter names registered alongside obs.CoreCounters.
// The nav_* counters are the paper's Sparksee introspection; the bitmap
// and index counters break one navigation call into its primitive set
// operations, and record_fetches (a core counter) is the engine's
// "db hit" equivalent: one increment per object or edge record resolved.
const (
	CBitmapAndOps  = "bitmap_and_ops"
	CBitmapOrOps   = "bitmap_or_ops"
	CBitmapScanOps = "bitmap_scan_ops"
	CIndexProbes   = "attr_index_probes"
	CNavNeighbors  = "nav_neighbors"
	CNavExplodes   = "nav_explodes"
	CNavSelects    = "nav_selects"
	CNavFinds      = "nav_finds"

	// Graceful-degradation counters: queries aborted by caller
	// cancellation vs. an expired deadline, counted once at the
	// detection site.
	CQueriesCancelled = "queries_cancelled"
	CQueriesTimedOut  = "queries_timed_out"
)

// Counters aggregates navigation-operation statistics, the introspection
// the paper performs on Sparksee executions.
type Counters struct {
	Neighbors uint64 // Neighbors calls served
	Explodes  uint64 // Explode calls served
	Selects   uint64 // Select calls served
	Finds     uint64 // FindObject(s) calls served
}

// DB is an embedded bitmap-based graph database. All read operations are
// safe for concurrent use once loading has finished; writes require
// external serialisation (the engine is single-writer, as Sparksee's
// exclusive sessions are).
type DB struct {
	mu sync.RWMutex

	maxObjects uint64
	objects    uint64 // live object count

	types       []*typeInfo // index = TypeID-1
	typesByName map[string]graph.TypeID

	attrs []*attrInfo // index = AttrID-1

	reg      *obs.Registry
	tracer   *obs.Tracer
	traceBuf *obs.TraceBuffer // timeline export sink; disabled until enabled
	stats    *qstats.Stats    // per-fingerprint statement statistics
	logger   *olog.Logger     // structured JSON log (off until leveled up)
	hooks    *setHooks        // bitmap-op counters shared with Objects results

	cFetches      *obs.Counter // record_fetches: per object/edge resolved
	cIndexProbes  *obs.Counter
	cBitmapScan   *obs.Counter
	cNavNeighbors *obs.Counter
	cNavExplodes  *obs.Counter
	cNavSelects   *obs.Counter
	cNavFinds     *obs.Counter
	cQCancelled   *obs.Counter
	cQTimedOut    *obs.Counter
}

type typeInfo struct {
	id     graph.TypeID
	name   string
	isEdge bool

	objects *bitmap.Bitmap // member OIDs
	nextSeq uint64         // per-type dense sequence

	attrsByName map[string]graph.AttrID

	// Edge-type state.
	tails, heads []uint64                  // edge seq-1 -> endpoint OID
	outLinks     map[uint64]*bitmap.Bitmap // tail OID -> edge OIDs
	inLinks      map[uint64]*bitmap.Bitmap // head OID -> edge OIDs

	// Materialised neighbor index (optional, import-time choice).
	materialized bool
	outNbrs      map[uint64]*bitmap.Bitmap // tail OID -> head OIDs
	inNbrs       map[uint64]*bitmap.Bitmap // head OID -> tail OIDs
}

type attrInfo struct {
	id      graph.AttrID
	typeID  graph.TypeID
	name    string
	kind    graph.Kind
	indexed bool
	// values is the OID→value column: values[seq-1] holds the value of
	// makeOID(typeID, seq), NilValue when unset. A type's OIDs are dense
	// and never deleted, so a slice stands where a map would; set counts
	// its non-nil entries (Save's value count). Single values are read
	// and written only through get and put; scans range over it in OID
	// order.
	values  []graph.Value
	set     int
	index   map[string]*bitmap.Bitmap // Value.Key() -> OIDs
	keyVals map[string]graph.Value    // Value.Key() -> Value
}

// get returns the value stored for oid: NilValue when unset or when oid
// is not an object of the attribute's type.
func (ai *attrInfo) get(oid uint64) graph.Value {
	if ObjectType(oid) != ai.typeID {
		return graph.NilValue
	}
	if i := seqOf(oid) - 1; i < uint64(len(ai.values)) {
		return ai.values[i]
	}
	return graph.NilValue
}

// put stores v for oid, NilValue clearing it, and keeps set in step.
// The caller has checked that oid is a live object of the attribute's
// type, which bounds the column by the type's sequence counter.
func (ai *attrInfo) put(oid uint64, v graph.Value) {
	i := seqOf(oid) - 1
	if i >= uint64(len(ai.values)) {
		if v.IsNil() {
			return
		}
		ai.values = append(ai.values, make([]graph.Value, i+1-uint64(len(ai.values)))...)
	}
	if old := ai.values[i]; old.IsNil() != v.IsNil() {
		if v.IsNil() {
			ai.set--
		} else {
			ai.set++
		}
	}
	ai.values[i] = v
}

// size lengthens the column to n entries at exactly that capacity, for
// callers that know how many objects the type is about to hold.
func (ai *attrInfo) size(n uint64) {
	if n <= uint64(len(ai.values)) {
		return
	}
	if n <= uint64(cap(ai.values)) {
		ai.values = ai.values[:n]
		return
	}
	col := make([]graph.Value, n)
	copy(col, ai.values)
	ai.values = col
}

// New creates an empty database.
func New(cfg Config) *DB {
	max := cfg.MaxObjects
	if max == 0 {
		max = DefaultMaxObjects
	}
	reg := obs.NewEngineRegistry()
	db := &DB{
		maxObjects:  max,
		typesByName: make(map[string]graph.TypeID),
		reg:         reg,
		tracer:      obs.NewTracer(),
		traceBuf:    obs.NewTraceBuffer(obs.DefaultTraceEvents),
		stats:       qstats.NewStats(0),
		logger:      olog.New("sparksee"),
		hooks: &setHooks{
			and:  reg.Counter(CBitmapAndOps),
			or:   reg.Counter(CBitmapOrOps),
			scan: reg.Counter(CBitmapScanOps),
		},
		cFetches:      reg.Counter(obs.CRecordFetches),
		cIndexProbes:  reg.Counter(CIndexProbes),
		cBitmapScan:   reg.Counter(CBitmapScanOps),
		cNavNeighbors: reg.Counter(CNavNeighbors),
		cNavExplodes:  reg.Counter(CNavExplodes),
		cNavSelects:   reg.Counter(CNavSelects),
		cNavFinds:     reg.Counter(CNavFinds),
		cQCancelled:   reg.Counter(CQueriesCancelled),
		cQTimedOut:    reg.Counter(CQueriesTimedOut),
	}
	db.tracer.Watch(obs.CRecordFetches, db.cFetches)
	db.tracer.SetSink(db.traceBuf)
	// Per-fingerprint resource accounting mirrors the tracer's watched
	// set, plus the engine's bitmap primitives — the Sparksee-side
	// cost unit the paper reads.
	db.stats.Watch(obs.CRecordFetches, db.cFetches)
	db.stats.Watch(CBitmapScanOps, db.cBitmapScan)
	db.stats.Watch(CIndexProbes, db.cIndexProbes)
	db.tracer.SetOnSlow(db.logger.SlowQuery)
	return db
}

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
// surface raises it).
func (db *DB) Logger() *olog.Logger { return db.logger }

// Health reports engine liveness. The in-memory engine has no failure
// modes beyond process death, so it is always healthy; the method exists
// so the telemetry /healthz endpoint can treat both engines uniformly.
func (db *DB) Health() error { return nil }

// RecordFetches returns the cumulative object/edge record resolutions —
// the engine's "db hit" equivalent, comparable to neodb.RecordFetches.
func (db *DB) RecordFetches() uint64 { return db.cFetches.Load() }

// ---------- schema ----------

// NewNodeType registers a node type and returns its id.
func (db *DB) NewNodeType(name string) (graph.TypeID, error) {
	return db.newType(name, false, false)
}

// NewEdgeType registers an edge type. When materializeNeighbors is true
// the engine maintains a direct neighbor index for the type — the
// import-time option whose cost the paper measured (and aborted after
// eight hours at full scale).
func (db *DB) NewEdgeType(name string, materializeNeighbors bool) (graph.TypeID, error) {
	return db.newType(name, true, materializeNeighbors)
}

func (db *DB) newType(name string, isEdge, materialize bool) (graph.TypeID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.typesByName[name]; dup {
		return graph.NilType, fmt.Errorf("%w: %q", graph.ErrTypeExists, name)
	}
	id := graph.TypeID(len(db.types) + 1)
	ti := &typeInfo{
		id: id, name: name, isEdge: isEdge,
		objects:     bitmap.New(),
		attrsByName: make(map[string]graph.AttrID),
	}
	if isEdge {
		ti.outLinks = make(map[uint64]*bitmap.Bitmap)
		ti.inLinks = make(map[uint64]*bitmap.Bitmap)
		if materialize {
			ti.materialized = true
			ti.outNbrs = make(map[uint64]*bitmap.Bitmap)
			ti.inNbrs = make(map[uint64]*bitmap.Bitmap)
		}
	}
	db.types = append(db.types, ti)
	db.typesByName[name] = id
	return id, nil
}

// FindType returns the id of the named type, or NilType.
func (db *DB) FindType(name string) graph.TypeID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.typesByName[name]
}

// TypeName returns the name of a type id.
func (db *DB) TypeName(id graph.TypeID) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if ti := db.typeInfo(id); ti != nil {
		return ti.name
	}
	return ""
}

// typeInfo returns the type record or nil. Caller holds db.mu.
func (db *DB) typeInfo(id graph.TypeID) *typeInfo {
	if id == 0 || int(id) > len(db.types) {
		return nil
	}
	return db.types[id-1]
}

// NewAttribute registers an attribute on a type. Indexed attributes
// maintain a value→objects inverted index used by FindObject and Select.
func (db *DB) NewAttribute(typeID graph.TypeID, name string, kind graph.Kind, indexed bool) (graph.AttrID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ti := db.typeInfo(typeID)
	if ti == nil {
		return graph.NilAttr, fmt.Errorf("%w: type %d", graph.ErrNotFound, typeID)
	}
	if _, dup := ti.attrsByName[name]; dup {
		return graph.NilAttr, fmt.Errorf("%w: %s.%s", graph.ErrAttrExists, ti.name, name)
	}
	id := graph.AttrID(len(db.attrs) + 1)
	ai := &attrInfo{
		id: id, typeID: typeID, name: name, kind: kind, indexed: indexed,
	}
	if indexed {
		ai.index = make(map[string]*bitmap.Bitmap)
		ai.keyVals = make(map[string]graph.Value)
	}
	db.attrs = append(db.attrs, ai)
	ti.attrsByName[name] = id
	return id, nil
}

// FindAttribute returns the id of the named attribute on a type, or
// NilAttr.
func (db *DB) FindAttribute(typeID graph.TypeID, name string) graph.AttrID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(typeID)
	if ti == nil {
		return graph.NilAttr
	}
	return ti.attrsByName[name]
}

func (db *DB) attrInfo(id graph.AttrID) *attrInfo {
	if id == 0 || int(id) > len(db.attrs) {
		return nil
	}
	return db.attrs[id-1]
}

// ---------- objects ----------

// ObjectType extracts the type id encoded in an OID.
func ObjectType(oid uint64) graph.TypeID {
	return graph.TypeID(oid >> oidTypeShift)
}

func makeOID(t graph.TypeID, seq uint64) uint64 {
	return uint64(t)<<oidTypeShift | seq
}

func seqOf(oid uint64) uint64 { return oid & (1<<oidTypeShift - 1) }

// NewNode creates a node of the given type and returns its OID.
func (db *DB) NewNode(typeID graph.TypeID) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ti := db.typeInfo(typeID)
	if ti == nil || ti.isEdge {
		return 0, fmt.Errorf("%w: node type %d", graph.ErrNotFound, typeID)
	}
	if db.objects >= db.maxObjects {
		return 0, fmt.Errorf("sparkdb: license object cap %d reached", db.maxObjects)
	}
	db.objects++
	ti.nextSeq++
	oid := makeOID(typeID, ti.nextSeq)
	ti.objects.Add(oid)
	return oid, nil
}

// NewEdge creates an edge of the given type from tail to head and
// returns its OID.
func (db *DB) NewEdge(typeID graph.TypeID, tail, head uint64) (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ti := db.typeInfo(typeID)
	if ti == nil || !ti.isEdge {
		return 0, fmt.Errorf("%w: edge type %d", graph.ErrNotFound, typeID)
	}
	if db.objects >= db.maxObjects {
		return 0, fmt.Errorf("sparkdb: license object cap %d reached", db.maxObjects)
	}
	db.objects++
	ti.nextSeq++
	oid := makeOID(typeID, ti.nextSeq)
	ti.objects.Add(oid)
	ti.tails = append(ti.tails, tail)
	ti.heads = append(ti.heads, head)
	link(ti.outLinks, tail, oid)
	link(ti.inLinks, head, oid)
	if ti.materialized {
		link(ti.outNbrs, tail, head)
		link(ti.inNbrs, head, tail)
	}
	return oid, nil
}

func link(m map[uint64]*bitmap.Bitmap, key, val uint64) {
	b, ok := m[key]
	if !ok {
		b = bitmap.New()
		m[key] = b
	}
	b.Add(val)
}

// EdgeEndpoints returns the tail and head of an edge OID.
func (db *DB) EdgeEndpoints(edge uint64) (tail, head uint64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(ObjectType(edge))
	if ti == nil || !ti.isEdge {
		return 0, 0, fmt.Errorf("%w: edge %d", graph.ErrNotFound, edge)
	}
	seq := seqOf(edge)
	if seq == 0 || seq > uint64(len(ti.tails)) {
		return 0, 0, fmt.Errorf("%w: edge %d", graph.ErrNotFound, edge)
	}
	return ti.tails[seq-1], ti.heads[seq-1], nil
}

// CountObjects returns the number of live objects of a type, or of all
// types when typeID is NilType.
func (db *DB) CountObjects(typeID graph.TypeID) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if typeID == graph.NilType {
		return int(db.objects)
	}
	if ti := db.typeInfo(typeID); ti != nil {
		return ti.objects.Cardinality()
	}
	return 0
}

// Objects returns the member set of a type as an Objects collection.
func (db *DB) Objects(typeID graph.TypeID) *Objects {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if ti := db.typeInfo(typeID); ti != nil {
		return db.newObjects(ti.objects.Clone())
	}
	return db.newObjects(bitmap.New())
}

// ---------- attributes ----------

// SetAttribute sets attr on oid. The object must exist and the value
// kind must match the declared attribute kind (or be nil to clear); a
// rejected write leaves the stored value and its index entry as they
// were.
func (db *DB) SetAttribute(oid uint64, attr graph.AttrID, v graph.Value) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ai := db.attrInfo(attr)
	if ai == nil {
		return fmt.Errorf("%w: attribute %d", graph.ErrNotFound, attr)
	}
	if ObjectType(oid) != ai.typeID {
		return fmt.Errorf("sparkdb: attribute %s belongs to type %d, object is type %d", ai.name, ai.typeID, ObjectType(oid))
	}
	if seq := seqOf(oid); seq == 0 || seq > db.typeInfo(ai.typeID).nextSeq {
		return fmt.Errorf("%w: object %d", graph.ErrNotFound, oid)
	}
	if !v.IsNil() && v.Kind() != ai.kind {
		return fmt.Errorf("%w: %s wants %v, got %v", graph.ErrKindMismatch, ai.name, ai.kind, v.Kind())
	}
	if old := ai.get(oid); !old.IsNil() && ai.indexed {
		unindex(ai, old, oid)
	}
	ai.put(oid, v)
	if ai.indexed && !v.IsNil() {
		k := v.Key()
		b, ok := ai.index[k]
		if !ok {
			b = newPostings(ai, k, v)
		}
		b.Add(oid)
	}
	return nil
}

// newPostings registers an empty posting bitmap for value key k.
func newPostings(ai *attrInfo, k string, v graph.Value) *bitmap.Bitmap {
	b := bitmap.New()
	ai.index[k] = b
	ai.keyVals[k] = v
	return b
}

func unindex(ai *attrInfo, v graph.Value, oid uint64) {
	k := v.Key()
	if b, ok := ai.index[k]; ok {
		b.Remove(oid)
		if b.IsEmpty() {
			delete(ai.index, k)
			delete(ai.keyVals, k)
		}
	}
}

// GetAttribute returns the value of attr on oid (NilValue when unset).
func (db *DB) GetAttribute(oid uint64, attr graph.AttrID) graph.Value {
	db.cFetches.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ai := db.attrInfo(attr)
	if ai == nil {
		return graph.NilValue
	}
	return ai.get(oid)
}

// GetInts appends to dst the integer value of attr on each of oids, in
// order, and returns the extended slice: GetAttribute(...).Int() over a
// batch, under one read lock and one record_fetches update of
// len(oids). An unset value, or one of another kind, reads as 0.
func (db *DB) GetInts(oids []uint64, attr graph.AttrID, dst []int64) []int64 {
	db.cFetches.Add(uint64(len(oids)))
	db.mu.RLock()
	defer db.mu.RUnlock()
	ai := db.attrInfo(attr)
	for _, oid := range oids {
		var v int64
		if ai != nil {
			v = ai.get(oid).Int()
		}
		dst = append(dst, v)
	}
	return dst
}

// FindObject returns the first object whose attr equals v, mirroring
// Sparksee's findObject. The attribute must be indexed.
func (db *DB) FindObject(attr graph.AttrID, v graph.Value) (uint64, bool) {
	db.cNavFinds.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ai := db.attrInfo(attr)
	if ai == nil || !ai.indexed {
		return 0, false
	}
	db.cIndexProbes.Inc()
	if b, ok := ai.index[v.Key()]; ok {
		db.cFetches.Inc()
		return b.Min()
	}
	return 0, false
}

// FindObjects returns all objects whose attr equals v.
func (db *DB) FindObjects(attr graph.AttrID, v graph.Value) *Objects {
	db.cNavFinds.Inc()
	db.mu.RLock()
	defer db.mu.RUnlock()
	ai := db.attrInfo(attr)
	if ai == nil || !ai.indexed {
		return db.newObjects(bitmap.New())
	}
	db.cIndexProbes.Inc()
	if b, ok := ai.index[v.Key()]; ok {
		db.cFetches.Inc()
		return db.newObjects(b.Clone())
	}
	return db.newObjects(bitmap.New())
}

// Stats returns the navigation counters (now backed by the registry).
func (db *DB) Stats() Counters {
	return Counters{
		Neighbors: db.cNavNeighbors.Load(),
		Explodes:  db.cNavExplodes.Load(),
		Selects:   db.cNavSelects.Load(),
		Finds:     db.cNavFinds.Load(),
	}
}

// ResetStats zeroes every registry counter, histogram and gauge —
// navigation counters included. Alias ResetCounters matches the
// neodb method of the same name so harness code can treat the two
// engines uniformly.
func (db *DB) ResetStats() { db.ResetCounters() }

// ResetCounters zeroes all observability counters and the statement
// statistics (between experiment phases); identical to ResetStats.
func (db *DB) ResetCounters() {
	db.reg.Reset()
	db.stats.Reset()
}
