package neodb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"twigraph/internal/graph"
	"twigraph/internal/storage"
)

// WAL record kinds.
const (
	opCreateNode uint8 = iota + 1
	opCreateRel
	opSetNodeProp
	opDeleteRel
	opDeleteNode
)

// Tx is a write transaction. Operations buffer logical changes and
// allocate ids eagerly; Commit redo-logs the buffer to the WAL and then
// applies it to the stores under the single-writer lock. Rollback
// discards the buffer and releases the allocated ids.
//
// A transaction's own uncommitted writes are not visible to reads — the
// engine provides read-committed isolation, which is all the paper's
// workload (bulk import followed by read queries, plus the update
// experiments) requires.
type Tx struct {
	db   *DB
	ops  []txOp
	done bool
}

type txOp struct {
	kind    uint8
	payload []byte
}

// Begin starts a write transaction.
func (db *DB) Begin() *Tx {
	db.cTxBegin.Inc()
	return &Tx{db: db}
}

// CreateNode buffers the creation of a node with the given label and
// properties, returning its id immediately. Properties are written in
// key order, so the node's property chain, and the ids of keys first
// used here, do not depend on map iteration order.
func (tx *Tx) CreateNode(label graph.TypeID, props graph.Properties) graph.NodeID {
	id := graph.NodeID(tx.db.nodes.Allocate())
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(id))
	binary.Write(&buf, binary.LittleEndian, uint32(label))
	tx.ops = append(tx.ops, txOp{opCreateNode, buf.Bytes()})
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		tx.SetNodeProp(id, tx.db.PropKey(k), props[k])
	}
	return id
}

// CreateRel buffers the creation of a relationship, returning its id
// immediately.
func (tx *Tx) CreateRel(t graph.TypeID, src, dst graph.NodeID) graph.EdgeID {
	id := graph.EdgeID(tx.db.rels.Allocate())
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(id))
	binary.Write(&buf, binary.LittleEndian, uint32(t))
	binary.Write(&buf, binary.LittleEndian, uint64(src))
	binary.Write(&buf, binary.LittleEndian, uint64(dst))
	tx.ops = append(tx.ops, txOp{opCreateRel, buf.Bytes()})
	return id
}

// SetNodeProp buffers a property write on a node.
func (tx *Tx) SetNodeProp(id graph.NodeID, key graph.AttrID, v graph.Value) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(id))
	binary.Write(&buf, binary.LittleEndian, uint32(key))
	graph.WriteValue(&buf, v)
	tx.ops = append(tx.ops, txOp{opSetNodeProp, buf.Bytes()})
}

// DeleteRel buffers the deletion of a relationship.
func (tx *Tx) DeleteRel(id graph.EdgeID) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(id))
	tx.ops = append(tx.ops, txOp{opDeleteRel, buf.Bytes()})
}

// DeleteNode buffers the deletion of a node. Commit fails if the node
// still has relationships.
func (tx *Tx) DeleteNode(id graph.NodeID) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(id))
	tx.ops = append(tx.ops, txOp{opDeleteNode, buf.Bytes()})
}

// Commit redo-logs the buffered operations and applies them to the
// stores. On error the stores may hold a prefix of the transaction;
// recovery replays the WAL, which holds the full intent, so the
// post-recovery state is consistent.
func (tx *Tx) Commit() error {
	if tx.done {
		return graph.ErrTxDone
	}
	tx.done = true
	db := tx.db
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.closed {
		return graph.ErrClosed
	}
	// Up to the end of the sync, nothing has touched the stores: a
	// failure abandons the half-appended batch (so it can never enter
	// the replayable prefix) and returns the eagerly allocated ids, so
	// the in-memory allocators — and the next checkpoint's headers —
	// keep matching the store contents.
	logStart := db.log.Offset()
	fail := func(err error) error {
		db.log.Rewind(logStart)
		tx.releaseIDs()
		return err
	}
	// A name or index created since catalog.json was last written is
	// made durable before any logged op can refer to it.
	if db.catalogDirty.Load() {
		if err := db.writeCatalog(false); err != nil {
			return fail(err)
		}
	}
	for _, op := range tx.ops {
		if _, err := db.log.Append(op.kind, op.payload); err != nil {
			return fail(err)
		}
	}
	if db.cfg.SyncCommits {
		if err := db.log.Sync(); err != nil {
			return fail(err)
		}
	}
	for _, op := range tx.ops {
		if err := db.applyOp(op.kind, op.payload); err != nil {
			return err
		}
	}
	db.cTxCommit.Inc()
	return nil
}

// Rollback discards the transaction.
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.cTxAbort.Inc()
	tx.releaseIDs()
}

// releaseIDs returns the transaction's eagerly allocated ids to the
// store allocators for reuse. Only safe while none of the buffered
// operations have been applied.
func (tx *Tx) releaseIDs() {
	for _, op := range tx.ops {
		id := binary.LittleEndian.Uint64(op.payload[0:8])
		switch op.kind {
		case opCreateNode:
			tx.db.nodes.Release(id)
		case opCreateRel:
			tx.db.rels.Release(id)
		}
	}
	tx.ops = nil
}

// recover replays the WAL against the stores. Every apply is
// idempotent, so replaying operations that already reached the store
// files is harmless. While recovering, logged create ops adopt their
// ids into the store allocators: the allocator state read from the
// header reflects the last checkpoint, not the logged tail, and must
// not hand a replayed id out a second time.
func (db *DB) recover() error {
	db.recovering = true
	// Replay of bulk-import frames hits the same dense hubs over and
	// over; the group cache spares the per-edge group-chain walk, exactly
	// as it does during the live import.
	db.groupCache = make(map[groupCacheKey]uint64)
	defer func() {
		db.recovering = false
		db.groupCache = nil
	}()
	return db.log.Replay(func(_ uint64, kind uint8, payload []byte) error {
		return db.applyOp(kind, payload)
	})
}

// ---------- operation application ----------

func (db *DB) applyOp(kind uint8, payload []byte) error {
	switch kind {
	case opCreateNode:
		id := graph.NodeID(binary.LittleEndian.Uint64(payload[0:8]))
		label := graph.TypeID(binary.LittleEndian.Uint32(payload[8:12]))
		return db.applyCreateNode(id, label)
	case opCreateRel:
		id := graph.EdgeID(binary.LittleEndian.Uint64(payload[0:8]))
		t := graph.TypeID(binary.LittleEndian.Uint32(payload[8:12]))
		src := graph.NodeID(binary.LittleEndian.Uint64(payload[12:20]))
		dst := graph.NodeID(binary.LittleEndian.Uint64(payload[20:28]))
		return db.applyCreateRel(id, t, src, dst)
	case opSetNodeProp:
		id := graph.NodeID(binary.LittleEndian.Uint64(payload[0:8]))
		key := graph.AttrID(binary.LittleEndian.Uint32(payload[8:12]))
		v, err := graph.ReadValue(bytes.NewReader(payload[12:]))
		if err != nil {
			return err
		}
		return db.applySetNodeProp(id, key, v)
	case opDeleteRel:
		id := graph.EdgeID(binary.LittleEndian.Uint64(payload[0:8]))
		return db.applyDeleteRel(id)
	case opDeleteNode:
		id := graph.NodeID(binary.LittleEndian.Uint64(payload[0:8]))
		return db.applyDeleteNode(id)
	case opImportNodes:
		return db.applyImportNodes(payload)
	case opImportDense:
		ids, err := db.decodeImportDense(payload)
		if err != nil {
			return err
		}
		return db.applyImportDense(ids)
	case opImportRels:
		return db.applyImportRels(payload)
	}
	return fmt.Errorf("neodb: unknown op kind %d", kind)
}

func (db *DB) applyCreateNode(id graph.NodeID, label graph.TypeID) error {
	if db.recovering {
		db.nodes.AdoptID(uint64(id))
	}
	rec, err := db.nodes.Get(id)
	if err != nil {
		return err
	}
	if rec.InUse {
		return nil // idempotent replay
	}
	if err := db.nodes.Put(id, storage.NodeRecord{InUse: true, Label: label}); err != nil {
		return err
	}
	db.labelScan.Add(label, id)
	return nil
}

func (db *DB) applyCreateRel(id graph.EdgeID, t graph.TypeID, src, dst graph.NodeID) error {
	if db.recovering {
		// Only a replayed op can find its id in use: outside replay the
		// id was just allocated.
		db.rels.AdoptID(uint64(id))
		rec, err := db.rels.Get(id)
		if err != nil {
			return err
		}
		if rec.InUse {
			return nil // idempotent replay
		}
	}
	srcRec, err := db.nodes.Get(src)
	if err != nil {
		return err
	}
	if !srcRec.InUse {
		return fmt.Errorf("%w: source node %d", graph.ErrNotFound, src)
	}
	dstRec := srcRec
	if dst != src {
		if dstRec, err = db.nodes.Get(dst); err != nil {
			return err
		}
		if !dstRec.InUse {
			return fmt.Errorf("%w: target node %d", graph.ErrNotFound, dst)
		}
	}

	// Crossing the dense threshold converts the node to relationship
	// groups before the new edge is linked.
	if !srcRec.Dense && srcRec.DegOut+srcRec.DegIn+1 > db.denseThreshold() {
		if err := db.convertToDense(src, &srcRec); err != nil {
			return err
		}
	}
	if dst != src && !dstRec.Dense && dstRec.DegOut+dstRec.DegIn+1 > db.denseThreshold() {
		if err := db.convertToDense(dst, &dstRec); err != nil {
			return err
		}
	}

	newRec := storage.RelRecord{InUse: true, Type: t, Src: src, Dst: dst}
	// A dense side links through its group for t, which is stored after
	// newRec (see linkDenseSide); gid 0 means no group to store.
	var srcGID, dstGID uint64
	var srcG, dstG storage.GroupRecord
	// Source side (outgoing chain).
	if srcRec.Dense {
		if srcGID, srcG, err = db.groupFor(src, &srcRec, t); err != nil {
			return err
		}
		if err := db.linkDenseSide(&srcG, id, &newRec, true); err != nil {
			return err
		}
	} else {
		if err := db.linkSparseSide(src, &srcRec, id, &newRec, true); err != nil {
			return err
		}
	}
	// Target side (incoming chain). A sparse self-loop is linked via
	// its source slots only; a dense self-loop joins both chains of the
	// same group.
	switch {
	case dst != src && dstRec.Dense:
		if dstGID, dstG, err = db.groupFor(dst, &dstRec, t); err != nil {
			return err
		}
		if err := db.linkDenseSide(&dstG, id, &newRec, false); err != nil {
			return err
		}
	case dst != src:
		if err := db.linkSparseSide(dst, &dstRec, id, &newRec, false); err != nil {
			return err
		}
	case srcRec.Dense: // dense self-loop
		if err := db.linkDenseSide(&srcG, id, &newRec, false); err != nil {
			return err
		}
	}
	if err := db.rels.Put(id, newRec); err != nil {
		return err
	}
	if srcGID != 0 {
		if err := db.groups.Put(srcGID, srcG); err != nil {
			return err
		}
	}
	if dstGID != 0 {
		if err := db.groups.Put(dstGID, dstG); err != nil {
			return err
		}
	}
	srcRec.DegOut++
	if dst == src {
		srcRec.DegIn++
	}
	if err := db.nodes.Put(src, srcRec); err != nil {
		return err
	}
	if dst != src {
		dstRec.DegIn++
		if err := db.nodes.Put(dst, dstRec); err != nil {
			return err
		}
	}
	db.statsMu.Lock()
	db.relStats[t]++
	db.statsMu.Unlock()
	return nil
}

// setPrevPointer sets the back-pointer of rel `head` on the chain owned
// by `owner` to point at `prev`.
func (db *DB) setPrevPointer(head graph.EdgeID, owner graph.NodeID, prev graph.EdgeID) error {
	rec, err := db.rels.Get(head)
	if err != nil {
		return err
	}
	if rec.Src == owner {
		rec.SrcPrev = prev
	} else {
		rec.DstPrev = prev
	}
	return db.rels.Put(head, rec)
}

func (db *DB) applySetNodeProp(id graph.NodeID, key graph.AttrID, v graph.Value) error {
	nodeRec, err := db.nodes.Get(id)
	if err != nil {
		return err
	}
	if !nodeRec.InUse {
		return fmt.Errorf("%w: node %d", graph.ErrNotFound, id)
	}
	// Walk the property chain looking for the key.
	var old graph.Value
	found := false
	pid := nodeRec.FirstProp
	for pid != 0 {
		prec, err := db.props.Get(pid)
		if err != nil {
			return err
		}
		if prec.Key == key {
			old, err = db.decodePropValue(prec)
			if err != nil {
				return err
			}
			found = true
			if prec.Kind == graph.KindString {
				if err := db.strs.FreeString(prec.Payload); err != nil {
					return err
				}
			}
			if v.IsNil() {
				// Clearing a property leaves a tombstone record
				// (kind nil) in the chain; compaction is out of
				// scope.
				prec.Kind = graph.KindNil
				prec.Payload = 0
			} else {
				kind, payload, err := db.encodePropValue(v)
				if err != nil {
					return err
				}
				prec.Kind, prec.Payload = kind, payload
			}
			if err := db.props.Put(pid, prec); err != nil {
				return err
			}
			break
		}
		pid = prec.Next
	}
	if !found && !v.IsNil() {
		kind, payload, err := db.encodePropValue(v)
		if err != nil {
			return err
		}
		newPid := db.props.Allocate()
		prec := storage.PropRecord{InUse: true, Key: key, Kind: kind, Payload: payload, Next: nodeRec.FirstProp}
		if err := db.props.Put(newPid, prec); err != nil {
			return err
		}
		nodeRec.FirstProp = newPid
		if err := db.nodes.Put(id, nodeRec); err != nil {
			return err
		}
	}
	// Maintain the schema index for (label, key) if one exists.
	if ix := db.index(nodeRec.Label, key); ix != nil {
		if found && !old.IsNil() {
			ix.Remove(old, uint64(id))
		}
		if !v.IsNil() {
			ix.Add(v, uint64(id))
		}
	}
	return nil
}

func (db *DB) applyDeleteRel(id graph.EdgeID) error {
	rec, err := db.rels.Get(id)
	if err != nil {
		return err
	}
	if !rec.InUse {
		return nil // idempotent replay
	}
	srcRec, err := db.nodes.Get(rec.Src)
	if err != nil {
		return err
	}
	dstRec := srcRec
	if rec.Dst != rec.Src {
		if dstRec, err = db.nodes.Get(rec.Dst); err != nil {
			return err
		}
	}
	// Source side.
	if srcRec.Dense {
		if err := db.unlinkDenseSide(&srcRec, id, rec, true); err != nil {
			return err
		}
	} else {
		if err := db.unlinkSparse(rec.Src, &srcRec, rec); err != nil {
			return err
		}
	}
	if srcRec.DegOut > 0 {
		srcRec.DegOut--
	}
	// Target side.
	switch {
	case rec.Dst != rec.Src && dstRec.Dense:
		if err := db.unlinkDenseSide(&dstRec, id, rec, false); err != nil {
			return err
		}
		if dstRec.DegIn > 0 {
			dstRec.DegIn--
		}
	case rec.Dst != rec.Src:
		if err := db.unlinkSparse(rec.Dst, &dstRec, rec); err != nil {
			return err
		}
		if dstRec.DegIn > 0 {
			dstRec.DegIn--
		}
	default: // self-loop
		if srcRec.Dense {
			if err := db.unlinkDenseSide(&srcRec, id, rec, false); err != nil {
				return err
			}
		}
		if srcRec.DegIn > 0 {
			srcRec.DegIn--
		}
	}
	if err := db.nodes.Put(rec.Src, srcRec); err != nil {
		return err
	}
	if rec.Dst != rec.Src {
		if err := db.nodes.Put(rec.Dst, dstRec); err != nil {
			return err
		}
	}
	if err := db.rels.Put(id, storage.RelRecord{}); err != nil {
		return err
	}
	db.rels.Release(uint64(id))
	db.statsMu.Lock()
	if db.relStats[rec.Type] > 0 {
		db.relStats[rec.Type]--
	}
	db.statsMu.Unlock()
	return nil
}

// unlinkSparse removes rel from a sparse node's single chain. The slot
// side is determined by which endpoint the node is (a self-loop lives
// on its source slots).
func (db *DB) unlinkSparse(n graph.NodeID, nodeRec *storage.NodeRecord, rec storage.RelRecord) error {
	srcSide := rec.Src == n
	var prev, next graph.EdgeID
	if srcSide {
		prev, next = rec.SrcPrev, rec.SrcNext
	} else {
		prev, next = rec.DstPrev, rec.DstNext
	}
	if prev == 0 {
		nodeRec.FirstRel = next
	} else {
		if err := db.setNextPointer(prev, n, next); err != nil {
			return err
		}
	}
	if next != 0 {
		if err := db.setPrevPointer(next, n, prev); err != nil {
			return err
		}
	}
	return nil
}

// setNextPointer sets the forward pointer of rel `r` on the chain owned
// by `owner` to point at `next`.
func (db *DB) setNextPointer(r graph.EdgeID, owner graph.NodeID, next graph.EdgeID) error {
	rec, err := db.rels.Get(r)
	if err != nil {
		return err
	}
	if rec.Src == owner {
		rec.SrcNext = next
	} else {
		rec.DstNext = next
	}
	return db.rels.Put(r, rec)
}

func (db *DB) applyDeleteNode(id graph.NodeID) error {
	rec, err := db.nodes.Get(id)
	if err != nil {
		return err
	}
	if !rec.InUse {
		return nil // idempotent replay
	}
	if rec.Dense {
		// A dense node is deletable when every group chain is empty;
		// the groups themselves are then released.
		gid := uint64(rec.FirstRel)
		for gid != 0 {
			g, err := db.groups.Get(gid)
			if err != nil {
				return err
			}
			if g.FirstOut != 0 || g.FirstIn != 0 {
				return fmt.Errorf("neodb: node %d still has relationships", id)
			}
			if db.groupCache != nil {
				delete(db.groupCache, groupCacheKey{id, g.Type})
			}
			next := g.Next
			if err := db.groups.Put(gid, storage.GroupRecord{}); err != nil {
				return err
			}
			db.groups.Release(gid)
			gid = next
		}
		rec.FirstRel = 0
	} else if rec.FirstRel != 0 {
		return fmt.Errorf("neodb: node %d still has relationships", id)
	}
	// Drop properties (and index entries).
	pid := rec.FirstProp
	for pid != 0 {
		prec, err := db.props.Get(pid)
		if err != nil {
			return err
		}
		if ix := db.index(rec.Label, prec.Key); ix != nil {
			if v, err := db.decodePropValue(prec); err == nil && !v.IsNil() {
				ix.Remove(v, uint64(id))
			}
		}
		if prec.Kind == graph.KindString {
			if err := db.strs.FreeString(prec.Payload); err != nil {
				return err
			}
		}
		next := prec.Next
		if err := db.props.Put(pid, storage.PropRecord{}); err != nil {
			return err
		}
		db.props.Release(pid)
		pid = next
	}
	db.labelScan.Remove(rec.Label, id)
	if err := db.nodes.Put(id, storage.NodeRecord{}); err != nil {
		return err
	}
	db.nodes.Release(uint64(id))
	return nil
}

// ---------- property value codec ----------

func (db *DB) encodePropValue(v graph.Value) (graph.Kind, uint64, error) {
	switch v.Kind() {
	case graph.KindInt:
		return graph.KindInt, uint64(v.Int()), nil
	case graph.KindBool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		return graph.KindBool, b, nil
	case graph.KindFloat:
		return graph.KindFloat, math.Float64bits(v.Float()), nil
	case graph.KindString:
		ref, err := db.strs.PutString(v.Str())
		if err != nil {
			return graph.KindNil, 0, err
		}
		return graph.KindString, ref, nil
	}
	return graph.KindNil, 0, fmt.Errorf("neodb: cannot store %v", v.Kind())
}
