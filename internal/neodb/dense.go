package neodb

import (
	"fmt"

	"twigraph/internal/graph"
	"twigraph/internal/storage"
)

// Dense-node support — Neo4j's relationship groups, the structure the
// paper's import step "computing the dense nodes" prepares. A node
// whose degree crosses the threshold trades its single mixed
// relationship chain for a chain of per-type group records, each
// heading separate outgoing and incoming chains. A typed traversal from
// a hub then touches only that type's records instead of scanning every
// incident relationship.
//
// Chain-slot convention for dense nodes: a node's outgoing chain links
// relationship records through their Src-side pointers (every member
// has Src == node), the incoming chain through Dst-side pointers. A
// self-loop is a member of both chains, using different slots.

// DefaultDenseThreshold is the cutoff a new store records when its
// Config leaves DenseThreshold at 0. It is lower than Neo4j's so that
// the feed's typed walks from ordinary users (Q2.2 reading each
// followee's posts) skip their follows records instead of faulting
// them in; the relationship groups this creates are paid for by
// 48-bit record ids (storage.RelRecordSize).
const DefaultDenseThreshold = 16

// Neo4jDenseThreshold is Neo4j 2.2's dense-node cutoff. The paper's
// experiments (internal/bench) build their stores with it.
const Neo4jDenseThreshold = 50

// denseThreshold returns the store's degree cutoff, settled in Open.
func (db *DB) denseThreshold() uint32 { return uint32(db.cfg.DenseThreshold) }

// groupCacheKey identifies one (node, relationship-type) group chain
// head for the import-time cache.
type groupCacheKey struct {
	n graph.NodeID
	t graph.TypeID
}

// groupFor returns the id and record of node n's group for relationship
// type t, creating and prepending one to the group chain (and updating
// *nodeRec) if absent. When the DB-level group cache is live (bulk
// import and WAL replay — single-writer phases), the linear chain walk
// is skipped for previously resolved (node, type) pairs; dense hubs
// with many relationship types otherwise pay that walk on every edge.
func (db *DB) groupFor(n graph.NodeID, nodeRec *storage.NodeRecord, t graph.TypeID) (uint64, storage.GroupRecord, error) {
	if db.groupCache != nil {
		if gid, ok := db.groupCache[groupCacheKey{n, t}]; ok {
			g, err := db.groups.Get(gid)
			if err != nil {
				return 0, storage.GroupRecord{}, err
			}
			return gid, g, nil
		}
	}
	gid := uint64(nodeRec.FirstRel)
	for gid != 0 {
		g, err := db.groups.Get(gid)
		if err != nil {
			return 0, storage.GroupRecord{}, err
		}
		if g.Type == t {
			if db.groupCache != nil {
				db.groupCache[groupCacheKey{n, t}] = gid
			}
			return gid, g, nil
		}
		gid = g.Next
	}
	g := storage.GroupRecord{InUse: true, Type: t, Next: uint64(nodeRec.FirstRel)}
	gid = db.groups.Allocate()
	if err := db.groups.Put(gid, g); err != nil {
		return 0, storage.GroupRecord{}, err
	}
	nodeRec.FirstRel = graph.EdgeID(gid)
	if db.groupCache != nil {
		db.groupCache[groupCacheKey{n, t}] = gid
	}
	return gid, g, nil
}

// ---------- side-explicit pointer helpers ----------

func (db *DB) setPrevSide(id graph.EdgeID, srcSide bool, prev graph.EdgeID) error {
	rec, err := db.rels.Get(id)
	if err != nil {
		return err
	}
	if srcSide {
		rec.SrcPrev = prev
	} else {
		rec.DstPrev = prev
	}
	return db.rels.Put(id, rec)
}

func (db *DB) setNextSide(id graph.EdgeID, srcSide bool, next graph.EdgeID) error {
	rec, err := db.rels.Get(id)
	if err != nil {
		return err
	}
	if srcSide {
		rec.SrcNext = next
	} else {
		rec.DstNext = next
	}
	return db.rels.Put(id, rec)
}

// linkDenseSide prepends rel id to one side's chain in group g (of a
// dense node), setting newRec's side pointers and the old head's back
// pointer and pointing g's head at id. The caller stores newRec and
// then g: readers walk group chains without the write lock, so the
// record must be in use by the time the chain can reach it. (The
// sparse path gets this ordering for free — its chain head lives in the
// node record, written last.)
func (db *DB) linkDenseSide(g *storage.GroupRecord, id graph.EdgeID, newRec *storage.RelRecord, srcSide bool) error {
	if srcSide {
		newRec.SrcPrev = 0
		newRec.SrcNext = g.FirstOut
		if g.FirstOut != 0 {
			if err := db.setPrevSide(g.FirstOut, true, id); err != nil {
				return err
			}
		}
		g.FirstOut = id
		return nil
	}
	newRec.DstPrev = 0
	newRec.DstNext = g.FirstIn
	if g.FirstIn != 0 {
		if err := db.setPrevSide(g.FirstIn, false, id); err != nil {
			return err
		}
	}
	g.FirstIn = id
	return nil
}

// linkSparseSide prepends rel id to a sparse node's single chain,
// mutating newRec's side pointers in place.
func (db *DB) linkSparseSide(n graph.NodeID, nodeRec *storage.NodeRecord, id graph.EdgeID, newRec *storage.RelRecord, srcSide bool) error {
	head := nodeRec.FirstRel
	if srcSide {
		newRec.SrcPrev = 0
		newRec.SrcNext = head
	} else {
		newRec.DstPrev = 0
		newRec.DstNext = head
	}
	if head != 0 {
		if err := db.setPrevPointer(head, n, id); err != nil {
			return err
		}
	}
	nodeRec.FirstRel = id
	return nil
}

// unlinkDenseSide removes rel id from the (node, type, side) chain of a
// dense node. rec is the relationship's current record.
func (db *DB) unlinkDenseSide(nodeRec *storage.NodeRecord, id graph.EdgeID, rec storage.RelRecord, srcSide bool) error {
	var prev, next graph.EdgeID
	if srcSide {
		prev, next = rec.SrcPrev, rec.SrcNext
	} else {
		prev, next = rec.DstPrev, rec.DstNext
	}
	if prev == 0 {
		// Head of the group chain.
		gid := uint64(nodeRec.FirstRel)
		for gid != 0 {
			g, err := db.groups.Get(gid)
			if err != nil {
				return err
			}
			if g.Type == rec.Type {
				if srcSide {
					g.FirstOut = next
				} else {
					g.FirstIn = next
				}
				if err := db.groups.Put(gid, g); err != nil {
					return err
				}
				break
			}
			gid = g.Next
		}
		if gid == 0 {
			return fmt.Errorf("neodb: dense node missing group for type %d", rec.Type)
		}
	} else {
		if err := db.setNextSide(prev, srcSide, next); err != nil {
			return err
		}
	}
	if next != 0 {
		if err := db.setPrevSide(next, srcSide, prev); err != nil {
			return err
		}
	}
	return nil
}

// convertToDense rewrites a sparse node's single mixed chain into
// per-type group chains. Called when the degree crosses the threshold;
// the paper's import tool performs the equivalent preparation during
// its dense-node step.
func (db *DB) convertToDense(n graph.NodeID, nodeRec *storage.NodeRecord) error {
	// Collect the chain (walking it one last time).
	type member struct {
		id  graph.EdgeID
		rec storage.RelRecord
	}
	var chain []member
	cur := nodeRec.FirstRel
	for cur != 0 {
		rec, err := db.rels.Get(cur)
		if err != nil {
			return err
		}
		chain = append(chain, member{cur, rec})
		if rec.Src == n {
			cur = rec.SrcNext
		} else {
			cur = rec.DstNext
		}
	}
	nodeRec.FirstRel = 0
	nodeRec.Dense = true
	// Relink in reverse so the new chains preserve the old order.
	for i := len(chain) - 1; i >= 0; i-- {
		m := chain[i]
		rec, err := db.rels.Get(m.id) // reread: earlier relinks may have touched it
		if err != nil {
			return err
		}
		gid, g, err := db.groupFor(n, nodeRec, rec.Type)
		if err != nil {
			return err
		}
		if rec.Src == n {
			if err := db.linkDenseSide(&g, m.id, &rec, true); err != nil {
				return err
			}
		}
		if rec.Dst == n { // both sides for a self-loop, in the same group
			if err := db.linkDenseSide(&g, m.id, &rec, false); err != nil {
				return err
			}
		}
		if err := db.rels.Put(m.id, rec); err != nil {
			return err
		}
		if err := db.groups.Put(gid, g); err != nil {
			return err
		}
	}
	return nil
}
