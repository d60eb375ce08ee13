package sparkdb

import (
	"context"
	"fmt"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/spmat"
)

// This file adapts the engine's adjacency storage to the algebraic
// execution layer (internal/spmat). An EdgeSource is one
// (edge type, direction) adjacency-matrix operator:
//
//   - with a materialised neighbor index, Row lends the stored
//     neighbor bitmap zero-copy — the masked SpMV kernels union and
//     probe the engine's own index pages without copying a row;
//   - without one, ForEachEdge streams a row's link bitmap and
//     resolves endpoints through the tails/heads arrays in edge-record
//     order, skipping the per-edge map lookups and OID decoding the
//     navigational Explode/EdgeEndpoints path pays.
//
// Lent rows and bitmaps are read-only and only valid while no writer
// runs — the engine's single-writer sessions guarantee that during
// query execution.

// EdgeSource is the spmat.Source over one edge type and direction.
// dir must be Outgoing or Incoming; an adjacency operator has no
// "Any" orientation (use two sources and union the results).
type EdgeSource struct {
	db  *DB
	et  graph.TypeID
	dir graph.Direction
}

// EdgeSource returns the adjacency operator for edges of edgeType
// oriented along dir.
func (db *DB) EdgeSource(edgeType graph.TypeID, dir graph.Direction) *EdgeSource {
	if dir != graph.Outgoing && dir != graph.Incoming {
		panic(fmt.Sprintf("sparkdb: EdgeSource direction must be Outgoing or Incoming, got %v", dir))
	}
	return &EdgeSource{db: db, et: edgeType, dir: dir}
}

// links returns the row's edge bitmap and the endpoint array resolving
// each edge's far end. Caller holds db.mu.
func (s *EdgeSource) links(ti *typeInfo, id uint64) (*bitmap.Bitmap, []uint64) {
	if s.dir == graph.Outgoing {
		return ti.outLinks[id], ti.heads
	}
	return ti.inLinks[id], ti.tails
}

// Row implements spmat.Source. With a materialised neighbor index the
// row is the stored bitmap, lent zero-copy; otherwise Cols is nil and
// callers stream ForEachEdge. Edges is always the stored edge count,
// so kernels detect parallel edges by comparing it with |Cols|.
func (s *EdgeSource) Row(id uint64) spmat.Row {
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(s.et)
	if ti == nil || !ti.isEdge {
		return spmat.Row{}
	}
	links, _ := s.links(ti, id)
	if links == nil {
		return spmat.Row{}
	}
	edges := links.Cardinality()
	if !ti.materialized {
		return spmat.Row{Edges: edges}
	}
	db.cFetches.Inc()
	nbrs := ti.outNbrs
	if s.dir == graph.Incoming {
		nbrs = ti.inNbrs
	}
	return spmat.Row{Cols: nbrs[id], Edges: edges}
}

// Lends implements spmat.Lender: true when the type's neighbor index
// is materialised, so BFS levels may probe rows bottom-up with the
// zero-alloc Intersects kernel instead of streaming chain walks.
func (s *EdgeSource) Lends() bool {
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(s.et)
	return ti != nil && ti.isEdge && ti.materialized
}

// ForEachEdge implements spmat.Source: one scan over the row's link
// bitmap, one endpoint-array read per edge, visited in edge-record
// order (ascending edge OID — the order the endpoint arrays were
// appended in). Record fetches are charged in bulk, one per edge
// resolved, matching the navigational path's cost accounting.
func (s *EdgeSource) ForEachEdge(id uint64, fn func(col uint64) bool) error {
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(s.et)
	if ti == nil || !ti.isEdge {
		return nil
	}
	links, ends := s.links(ti, id)
	if links == nil {
		return nil
	}
	db.cBitmapScan.Inc()
	n := 0
	links.ForEach(func(e uint64) bool {
		n++
		return fn(ends[seqOf(e)-1])
	})
	db.cFetches.Add(uint64(n))
	return nil
}

// Universe lends the member-OID bitmap of a type read-only — the
// candidate set of pull-direction BFS levels and the |V| input of the
// plan gate. Callers must not mutate or retain it past the query.
func (db *DB) Universe(t graph.TypeID) *bitmap.Bitmap {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ti := db.typeInfo(t)
	if ti == nil {
		return nil
	}
	return ti.objects
}

// TypeBase returns the smallest OID the type's id space can hold —
// the dense-accumulator anchor for candidates of that type (OIDs
// carry the type in their top bits, so a type's sequence range is
// contiguous above its base).
func (db *DB) TypeBase(t graph.TypeID) uint64 { return makeOID(t, 0) }

// CheckCtx polls ctx at a caller-chosen granularity, counting an
// abort exactly once — the exported form of the poll every native
// long-running read uses, for algebraic kernels driven from above the
// engine.
func (db *DB) CheckCtx(ctx context.Context) error { return db.checkCtx(ctx) }
