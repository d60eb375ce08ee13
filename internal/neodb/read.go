package neodb

import (
	"fmt"
	"math"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/storage"
)

// Node is a read snapshot of a node: its id and label. Properties are
// fetched lazily through NodeProp/NodeProps, matching the record-store
// cost model (reading a property walks the chain).
type Node struct {
	ID    graph.NodeID
	Label graph.TypeID
}

// Rel is a read snapshot of a relationship.
type Rel struct {
	ID       graph.EdgeID
	Type     graph.TypeID
	Src, Dst graph.NodeID
}

// Reader is a single-goroutine read handle: one storage cursor per
// store file, each keeping the last page it read pinned, so a scan that
// reads a node record and then its property records — usually on the
// pages it just read — skips the page cache's lookup for most of them.
// Every record read still counts one db hit. Reader is the one
// implementation of the record reads; the DB methods of the same names
// run a transient Reader. Close releases the pins; a closed Reader
// stays usable and re-pins on its next read. A Reader must not be
// shared between goroutines: parallel shards each take their own.
type Reader struct {
	db     *DB
	nodes  storage.NodeCursor
	rels   storage.RelCursor
	props  storage.PropCursor
	strs   storage.DynCursor
	groups storage.GroupCursor
}

// Reader returns an unpinned Reader over the database's store files.
func (db *DB) Reader() Reader {
	return Reader{
		db:     db,
		nodes:  db.nodes.Cursor(),
		rels:   db.rels.Cursor(),
		props:  db.props.Cursor(),
		strs:   db.strs.Cursor(),
		groups: db.groups.Cursor(),
	}
}

// Close releases every page the Reader holds pinned.
func (r *Reader) Close() {
	r.nodes.Close()
	r.rels.Close()
	r.props.Close()
	r.strs.Close()
	r.groups.Close()
}

// liveNode reads a node record, failing with ErrNotFound when the
// record is not in use.
func (r *Reader) liveNode(id graph.NodeID) (storage.NodeRecord, error) {
	rec, err := r.nodes.Get(id)
	if err == nil && !rec.InUse {
		err = fmt.Errorf("%w: node %d", graph.ErrNotFound, id)
	}
	return rec, err
}

// NodeByID returns the node with the given id.
func (r *Reader) NodeByID(id graph.NodeID) (Node, error) {
	rec, err := r.liveNode(id)
	if err != nil {
		return Node{}, err
	}
	return Node{ID: id, Label: rec.Label}, nil
}

// RelByID returns the relationship with the given id.
func (r *Reader) RelByID(id graph.EdgeID) (Rel, error) {
	rec, err := r.rels.Get(id)
	if err != nil {
		return Rel{}, err
	}
	if !rec.InUse {
		return Rel{}, fmt.Errorf("%w: relationship %d", graph.ErrNotFound, id)
	}
	return Rel{ID: id, Type: rec.Type, Src: rec.Src, Dst: rec.Dst}, nil
}

// NodeProp returns the value of one property on a node (NilValue when
// unset). Cost: one node record plus one property record per chain
// entry scanned. It is NodePropRun of one node.
func (r *Reader) NodeProp(id graph.NodeID, key graph.AttrID) (graph.Value, error) {
	var (
		ids  = [1]graph.NodeID{id}
		out  [1]graph.Value
		pids [1]uint64
		at   [1]int32
	)
	err := r.propRun(ids[:], key, out[:], pids[:], at[:])
	return out[0], err
}

// propChunk is how many nodes NodePropRun walks together. Its scratch
// is on the stack, so the walk allocates nothing.
const propChunk = 128

// NodePropRun sets out[i] to the value of property key on node ids[i]
// (NilValue when unset); out must be at least len(ids) long. It reads
// exactly the records len(ids) NodeProp calls read, propChunk nodes at
// a time: their node records as one storage run, then their property
// chains level by level — one run over the next property record of
// every chain still looking for key — with the string values a level
// matched read from the dynamic store after that level's run. A node
// not in use fails with ErrNotFound, as NodeProp does.
func (r *Reader) NodePropRun(ids []graph.NodeID, key graph.AttrID, out []graph.Value) error {
	var (
		pids [propChunk]uint64
		at   [propChunk]int32
	)
	for lo := 0; lo < len(ids); lo += propChunk {
		hi := min(lo+propChunk, len(ids))
		if err := r.propRun(ids[lo:hi], key, out[lo:hi], pids[:hi-lo], at[:hi-lo]); err != nil {
			return err
		}
	}
	return nil
}

// eachNodeProp calls fn with each node of ids, in order, and the value
// of property key on it, read propChunk nodes at a time with
// NodePropRun; until fn returns false. A run that fails is read again
// node by node, so fn sees each node's own error, as NodeProp reports
// it.
func (r *Reader) eachNodeProp(ids []graph.NodeID, key graph.AttrID, fn func(id graph.NodeID, v graph.Value, err error) bool) {
	var vals [propChunk]graph.Value
	for lo := 0; lo < len(ids); lo += propChunk {
		run := ids[lo:min(lo+propChunk, len(ids))]
		runErr := r.NodePropRun(run, key, vals[:len(run)])
		for i, id := range run {
			v, err := vals[i], error(nil)
			if runErr != nil {
				v, err = r.NodeProp(id, key)
			}
			if !fn(id, v, err) {
				return
			}
		}
	}
}

// propRun is the one property-chain walk. pids and at are scratch of
// len(ids): pids holds the record each pending chain reads next, at the
// out index it resolves (complemented while it waits for a string).
func (r *Reader) propRun(ids []graph.NodeID, key graph.AttrID, out []graph.Value, pids []uint64, at []int32) error {
	for i, id := range ids {
		pids[i], at[i] = uint64(id), int32(i)
	}
	dead := -1
	err := r.nodes.GetRun(pids, func(k int, rec storage.NodeRecord) {
		pids[k] = rec.FirstProp
		if !rec.InUse && dead < 0 {
			dead = k
		}
	})
	if err != nil {
		return err
	}
	if dead >= 0 {
		return fmt.Errorf("%w: node %d", graph.ErrNotFound, ids[dead])
	}
	for i := range ids {
		out[i] = graph.NilValue
	}
	var decodeErr error
	for n := len(pids); ; {
		// Keep the chains that go on, in order, and read the strings
		// the last run matched.
		w := 0
		for k := 0; k < n; k++ {
			if at[k] < 0 {
				s, err := r.strs.GetString(pids[k])
				if err != nil {
					return err
				}
				out[^at[k]] = graph.StringValue(s)
			} else if pids[k] != 0 {
				pids[w], at[w] = pids[k], at[k]
				w++
			}
		}
		if n = w; n == 0 {
			return nil
		}
		err := r.props.GetRun(pids[:n], func(k int, rec storage.PropRecord) {
			switch {
			case rec.Key != key:
				pids[k] = rec.Next
			case rec.Kind == graph.KindString:
				pids[k], at[k] = rec.Payload, ^at[k]
			default:
				v, err := r.propValue(rec)
				if err != nil && decodeErr == nil {
					decodeErr = err
				}
				out[at[k]], pids[k] = v, 0
			}
		})
		if err == nil {
			err = decodeErr
		}
		if err != nil {
			return err
		}
	}
}

// NodeProps returns all properties of a node.
func (r *Reader) NodeProps(id graph.NodeID) (graph.Properties, error) {
	rec, err := r.liveNode(id)
	if err != nil {
		return nil, err
	}
	props := graph.Properties{}
	pid := rec.FirstProp
	for pid != 0 {
		prec, err := r.props.Get(pid)
		if err != nil {
			return nil, err
		}
		if prec.Kind != graph.KindNil {
			v, err := r.propValue(prec)
			if err != nil {
				return nil, err
			}
			props[r.db.PropKeyName(prec.Key)] = v
		}
		pid = prec.Next
	}
	return props, nil
}

// propValue decodes a property record's value, reading the dynamic
// store for strings.
func (r *Reader) propValue(rec storage.PropRecord) (graph.Value, error) {
	switch rec.Kind {
	case graph.KindNil:
		return graph.NilValue, nil
	case graph.KindInt:
		return graph.IntValue(int64(rec.Payload)), nil
	case graph.KindBool:
		return graph.BoolValue(rec.Payload != 0), nil
	case graph.KindFloat:
		return graph.FloatValue(math.Float64frombits(rec.Payload)), nil
	case graph.KindString:
		s, err := r.strs.GetString(rec.Payload)
		if err != nil {
			return graph.NilValue, err
		}
		return graph.StringValue(s), nil
	}
	return graph.NilValue, fmt.Errorf("neodb: unknown stored kind %d", rec.Kind)
}

// Degree returns a node's cached degree. Per the record layout this is
// O(1): the counters live in the node record.
func (r *Reader) Degree(id graph.NodeID, dir graph.Direction) (int, error) {
	rec, err := r.liveNode(id)
	if err != nil {
		return 0, err
	}
	switch dir {
	case graph.Outgoing:
		return int(rec.DegOut), nil
	case graph.Incoming:
		return int(rec.DegIn), nil
	default:
		return int(rec.DegOut) + int(rec.DegIn), nil
	}
}

// Relationships iterates a node's relationship chain, invoking fn for
// each relationship matching the type filter (NilType matches all) and
// direction. Each chain step costs one relationship-record fetch. fn
// returning false stops the iteration. fn may read through the same
// Reader: the walk keeps no record bytes across the call.
func (r *Reader) Relationships(id graph.NodeID, t graph.TypeID, dir graph.Direction, fn func(Rel) bool) error {
	nodeRec, err := r.liveNode(id)
	if err != nil {
		return err
	}
	if nodeRec.Dense {
		return r.relationshipsDense(id, nodeRec, t, dir, fn)
	}
	cur := nodeRec.FirstRel
	for cur != 0 {
		r.db.cChainHops.Inc()
		rec, err := r.rels.Get(cur)
		if err != nil {
			return err
		}
		if !rec.InUse {
			return fmt.Errorf("neodb: chain of node %d reaches dead relationship %d", id, cur)
		}
		isOut := rec.Src == id
		isIn := rec.Dst == id
		match := (t == graph.NilType || rec.Type == t) &&
			((dir == graph.Outgoing && isOut) || (dir == graph.Incoming && isIn) || dir == graph.Any)
		if match {
			if !fn(Rel{ID: cur, Type: rec.Type, Src: rec.Src, Dst: rec.Dst}) {
				return nil
			}
		}
		if isOut {
			cur = rec.SrcNext
		} else {
			cur = rec.DstNext
		}
	}
	return nil
}

// relationshipsDense iterates a dense node's group chains.
func (r *Reader) relationshipsDense(id graph.NodeID, nodeRec storage.NodeRecord, t graph.TypeID, dir graph.Direction, fn func(Rel) bool) error {
	gid := uint64(nodeRec.FirstRel)
	for gid != 0 {
		r.db.cGroupScans.Inc()
		g, err := r.groups.Get(gid)
		if err != nil {
			return err
		}
		gid = g.Next
		if t != graph.NilType && g.Type != t {
			continue
		}
		if dir == graph.Outgoing || dir == graph.Any {
			cur := g.FirstOut
			for cur != 0 {
				r.db.cChainHops.Inc()
				rec, err := r.rels.Get(cur)
				if err != nil {
					return err
				}
				if !rec.InUse {
					return fmt.Errorf("neodb: dense out-chain of node %d reaches dead relationship %d", id, cur)
				}
				if !fn(Rel{ID: cur, Type: rec.Type, Src: rec.Src, Dst: rec.Dst}) {
					return nil
				}
				cur = rec.SrcNext
			}
		}
		if dir == graph.Incoming || dir == graph.Any {
			cur := g.FirstIn
			for cur != 0 {
				rec, err := r.rels.Get(cur)
				if err != nil {
					return err
				}
				if !rec.InUse {
					return fmt.Errorf("neodb: dense in-chain of node %d reaches dead relationship %d", id, cur)
				}
				// A self-loop sits in both chains; emit it only once
				// when both directions are being walked.
				if !(dir == graph.Any && rec.Src == rec.Dst) {
					if !fn(Rel{ID: cur, Type: rec.Type, Src: rec.Src, Dst: rec.Dst}) {
						return nil
					}
				}
				cur = rec.DstNext
			}
		}
	}
	return nil
}

// NodeByID is Reader.NodeByID on a transient Reader.
func (db *DB) NodeByID(id graph.NodeID) (Node, error) {
	r := db.Reader()
	defer r.Close()
	return r.NodeByID(id)
}

// RelByID is Reader.RelByID on a transient Reader.
func (db *DB) RelByID(id graph.EdgeID) (Rel, error) {
	r := db.Reader()
	defer r.Close()
	return r.RelByID(id)
}

// NodeProp is Reader.NodeProp on a transient Reader.
func (db *DB) NodeProp(id graph.NodeID, key graph.AttrID) (graph.Value, error) {
	r := db.Reader()
	defer r.Close()
	return r.NodeProp(id, key)
}

// NodeProps is Reader.NodeProps on a transient Reader.
func (db *DB) NodeProps(id graph.NodeID) (graph.Properties, error) {
	r := db.Reader()
	defer r.Close()
	return r.NodeProps(id)
}

// Degree is Reader.Degree on a transient Reader.
func (db *DB) Degree(id graph.NodeID, dir graph.Direction) (int, error) {
	r := db.Reader()
	defer r.Close()
	return r.Degree(id, dir)
}

// Relationships is Reader.Relationships on a transient Reader.
func (db *DB) Relationships(id graph.NodeID, t graph.TypeID, dir graph.Direction, fn func(Rel) bool) error {
	r := db.Reader()
	defer r.Close()
	return r.Relationships(id, t, dir, fn)
}

// decodePropValue is Reader.propValue on a transient Reader (the write
// path's decode of a record it is about to replace or drop).
func (db *DB) decodePropValue(rec storage.PropRecord) (graph.Value, error) {
	r := db.Reader()
	defer r.Close()
	return r.propValue(rec)
}

// Neighbors collects the distinct far endpoints of a node's
// relationships of type t in the given direction.
func (db *DB) Neighbors(id graph.NodeID, t graph.TypeID, dir graph.Direction) (*bitmap.Bitmap, error) {
	out := bitmap.New()
	err := db.Relationships(id, t, dir, func(r Rel) bool {
		if r.Src == id {
			out.Add(uint64(r.Dst))
		}
		if r.Dst == id {
			out.Add(uint64(r.Src))
		}
		return true
	})
	return out, err
}

// NodesByLabel returns a snapshot of the node ids with the label
// (possibly nil). The caller owns the bitmap.
func (db *DB) NodesByLabel(label graph.TypeID) *bitmap.Bitmap {
	return db.labelScan.Nodes(label)
}

// FindNodes returns a snapshot of the node ids where the indexed
// (label, key) equals v. It returns nil when no index exists — callers
// fall back to a label scan.
func (db *DB) FindNodes(label graph.TypeID, key graph.AttrID, v graph.Value) *bitmap.Bitmap {
	ix := db.index(label, key)
	if ix == nil {
		return nil
	}
	if b := ix.Lookup(v); b != nil {
		return b
	}
	return bitmap.New()
}

// SelectNodes returns a snapshot of the node ids the schema index on
// (label, key) posts under a value keep accepts: the nodes of the label
// whose key is set, not null, and accepted. It returns nil when no
// index exists or the index holds more than maxValues distinct values —
// callers fall back to a label scan. keep must not call into the
// database.
func (db *DB) SelectNodes(label graph.TypeID, key graph.AttrID, maxValues int, keep func(graph.Value) bool) *bitmap.Bitmap {
	ix := db.index(label, key)
	if ix == nil {
		return nil
	}
	return ix.Select(maxValues, keep)
}

// FindNode returns the single node where the indexed (label, key)
// equals v, for unique keys like uid.
func (db *DB) FindNode(label graph.TypeID, key graph.AttrID, v graph.Value) (graph.NodeID, bool) {
	b := db.FindNodes(label, key, v)
	if b == nil {
		return graph.NilNode, false
	}
	id, ok := b.Min()
	return graph.NodeID(id), ok
}

// HasIndex reports whether a schema index exists on (label, key).
func (db *DB) HasIndex(label graph.TypeID, key graph.AttrID) bool {
	return db.index(label, key) != nil
}
