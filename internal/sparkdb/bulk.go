package sparkdb

import (
	"fmt"

	"twigraph/internal/graph"
)

// Bulk-loading entry points for the import pipeline. The script loader
// applies one pipeline batch per call, paying the writer lock and the
// per-container bitmap bookkeeping once per batch instead of once per
// object: member bitmaps grow by AddRange over the batch's consecutive
// OID run, and attribute values land without re-checking schema per row.

// NewNodeBatch creates rows nodes of typeID with consecutive OIDs and
// sets every attribute in attrIDs from vals (row-major, one value per
// attribute per row) under a single lock acquisition. It returns the
// number of rows fully created. A value of the wrong kind rejects the
// whole batch before anything is created. When the license object cap
// is reached mid-batch the preceding prefix stays applied and a cap
// error is returned together with the prefix length — the same end
// state the per-row path leaves behind.
func (db *DB) NewNodeBatch(typeID graph.TypeID, attrIDs []graph.AttrID, rows int, vals []graph.Value) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ti := db.typeInfo(typeID)
	if ti == nil || ti.isEdge {
		return 0, fmt.Errorf("%w: node type %d", graph.ErrNotFound, typeID)
	}
	nattrs := len(attrIDs)
	ais := make([]*attrInfo, nattrs)
	for i, a := range attrIDs {
		ai := db.attrInfo(a)
		if ai == nil {
			return 0, fmt.Errorf("%w: attribute %d", graph.ErrNotFound, a)
		}
		if ai.typeID != typeID {
			return 0, fmt.Errorf("sparkdb: attribute %s belongs to type %d, batch is type %d", ai.name, ai.typeID, typeID)
		}
		ais[i] = ai
	}
	for r := 0; r < rows; r++ {
		for i, ai := range ais {
			if v := vals[r*nattrs+i]; v.Kind() != ai.kind {
				return 0, fmt.Errorf("%w: %s wants %v, got %v", graph.ErrKindMismatch, ai.name, ai.kind, v.Kind())
			}
		}
	}
	allowed := rows
	var capErr error
	if free := db.maxObjects - db.objects; uint64(allowed) > free {
		allowed = int(free)
		capErr = fmt.Errorf("sparkdb: license object cap %d reached", db.maxObjects)
	}
	if allowed > 0 {
		first := makeOID(typeID, ti.nextSeq+1)
		ti.objects.AddRange(first, first+uint64(allowed)-1)
		for _, ai := range ais {
			ai.size(ti.nextSeq+uint64(allowed), true)
		}
		for r := 0; r < allowed; r++ {
			oid := makeOID(typeID, ti.nextSeq+uint64(r)+1)
			for i, ai := range ais {
				v := vals[r*nattrs+i]
				ai.put(oid, v)
				if ai.indexed {
					k := v.Key()
					b, ok := ai.index[k]
					if !ok {
						b = newPostings(ai, k, v)
					}
					b.Add(oid)
				}
			}
		}
		ti.nextSeq += uint64(allowed)
		db.objects += uint64(allowed)
	}
	return allowed, capErr
}

// NewEdgeBatch creates one edge per (tail, head) pair — pairs alternates
// tail and head OIDs — with consecutive edge OIDs, under a single lock
// acquisition. Cap semantics match NewNodeBatch: the allowed prefix is
// applied and returned alongside the cap error.
func (db *DB) NewEdgeBatch(typeID graph.TypeID, pairs []uint64) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ti := db.typeInfo(typeID)
	if ti == nil || !ti.isEdge {
		return 0, fmt.Errorf("%w: edge type %d", graph.ErrNotFound, typeID)
	}
	allowed := len(pairs) / 2
	var capErr error
	if free := db.maxObjects - db.objects; uint64(allowed) > free {
		allowed = int(free)
		capErr = fmt.Errorf("sparkdb: license object cap %d reached", db.maxObjects)
	}
	if allowed > 0 {
		firstSeq := ti.nextSeq + 1
		first := makeOID(typeID, firstSeq)
		ti.objects.AddRange(first, first+uint64(allowed)-1)
		for r := 0; r < allowed; r++ {
			oid := makeOID(typeID, firstSeq+uint64(r))
			tail, head := pairs[2*r], pairs[2*r+1]
			ti.tails = append(ti.tails, tail)
			ti.heads = append(ti.heads, head)
			link(ti.outLinks, tail, oid)
			link(ti.inLinks, head, oid)
			if ti.materialized {
				link(ti.outNbrs, tail, head)
				link(ti.inNbrs, head, tail)
			}
		}
		ti.nextSeq += uint64(allowed)
		db.objects += uint64(allowed)
	}
	return allowed, capErr
}

// BulkResolver returns a FindObject-equivalent closure over attr's
// inverted index that skips the database lock, so the import pipeline's
// prepare workers can resolve endpoint references concurrently. The
// caller owns the safety contract: no writes to this attribute may run
// while the resolver is in use (the loader resolves node references
// during the edge phase, when node postings are immutable). A resolver
// over an unindexed attribute reports every lookup as missing, exactly
// as FindObject does.
func (db *DB) BulkResolver(attr graph.AttrID) func(v graph.Value) (uint64, bool) {
	db.mu.RLock()
	ai := db.attrInfo(attr)
	db.mu.RUnlock()
	if ai == nil || !ai.indexed {
		return func(graph.Value) (uint64, bool) {
			db.cNavFinds.Inc()
			return 0, false
		}
	}
	index := ai.index
	return func(v graph.Value) (uint64, bool) {
		db.cNavFinds.Inc()
		db.cIndexProbes.Inc()
		if b, ok := index[v.Key()]; ok {
			db.cFetches.Inc()
			return b.Min()
		}
		return 0, false
	}
}
