package neodb

import (
	"fmt"
	"slices"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/storage"
)

// IntegrityReport is the result of a structural integrity check. Total
// counts every violation found; Violations holds the first
// maxViolations of them verbatim.
type IntegrityReport struct {
	Nodes  uint64 // live node records checked
	Rels   uint64 // live relationship records checked
	Props  uint64 // property records reached via chains
	Groups uint64 // relationship-group records reached

	Total      int
	Violations []string
}

const maxViolations = 50

// OK reports whether the check found no violations.
func (r *IntegrityReport) OK() bool { return r.Total == 0 }

func (r *IntegrityReport) addf(format string, args ...any) {
	r.Total++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String summarises the report.
func (r *IntegrityReport) String() string {
	if r.OK() {
		return fmt.Sprintf("ok: %d nodes, %d rels, %d props, %d groups checked",
			r.Nodes, r.Rels, r.Props, r.Groups)
	}
	s := fmt.Sprintf("%d violations (%d nodes, %d rels checked):", r.Total, r.Nodes, r.Rels)
	for _, v := range r.Violations {
		s += "\n  " + v
	}
	if r.Total > len(r.Violations) {
		s += fmt.Sprintf("\n  ... and %d more", r.Total-len(r.Violations))
	}
	return s
}

// CheckIntegrity walks every store and verifies the structural
// invariants the engine relies on:
//
//   - relationship chains reach only in-use records that reference the
//     owning node, terminate (no cycles), and are consistently
//     doubly-linked;
//   - cached degrees match chain lengths, and every live relationship
//     is reachable from both its endpoints' chains;
//   - dense nodes have exactly one group per relationship type, and
//     group chains hold only matching-type members;
//   - property chains terminate, hold decodable values, and string
//     payloads resolve in the dynamic store;
//   - the label scan store and node records agree in both directions,
//     and so do schema indexes: postings point at live nodes holding
//     the indexed value, and every live node of the label with the
//     property set is posted under its value;
//   - the allocators cover every in-use record (no id both free and in
//     use, none in use beyond the high-water mark).
//
// Read errors are reported as violations, so injected corruption
// surfaces here instead of as silent wrong answers.
func (db *DB) CheckIntegrity() *IntegrityReport {
	r := &IntegrityReport{}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	nodeHigh := db.nodes.HighWater()
	relHigh := db.rels.HighWater()
	maxHops := relHigh + 1 // any terminating chain is shorter

	var liveRels, chainOut, chainIn uint64

	// Pass 1: relationship records.
	relLive := make(map[graph.EdgeID]storage.RelRecord)
	for id := uint64(1); id <= relHigh; id++ {
		rec, err := db.rels.Get(graph.EdgeID(id))
		if err != nil {
			r.addf("rel %d: unreadable: %v", id, err)
			continue
		}
		if !rec.InUse {
			continue
		}
		r.Rels++
		liveRels++
		relLive[graph.EdgeID(id)] = rec
		if rec.Type != graph.NilType && db.RelTypeName(rec.Type) == "" {
			r.addf("rel %d: unknown type %d", id, rec.Type)
		}
		for _, end := range []struct {
			n    graph.NodeID
			what string
		}{{rec.Src, "source"}, {rec.Dst, "target"}} {
			if end.n == 0 || uint64(end.n) > nodeHigh {
				r.addf("rel %d: %s node %d outside store", id, end.what, end.n)
				continue
			}
			nrec, err := db.nodes.Get(end.n)
			if err != nil {
				r.addf("rel %d: %s node %d unreadable: %v", id, end.what, end.n, err)
			} else if !nrec.InUse {
				r.addf("rel %d: %s node %d is not in use", id, end.what, end.n)
			}
		}
		r.Props += db.checkPropChain(r, fmt.Sprintf("rel %d", id), rec.FirstProp, maxHops)
	}

	// Back-pointer consistency: a record's prev on node n's side must
	// name a record whose next pointer in the same chain points back.
	// Which of the predecessor's slots carries that pointer depends on
	// the chain: a dense node's out-chain always links through Src slots
	// and its in-chain through Dst slots (a self-loop is in both chains,
	// on different slots), while a sparse node's single mixed chain uses
	// whichever side touches the node (self-loops ride source slots).
	for id, rec := range relLive {
		for _, side := range []struct {
			n       graph.NodeID
			prev    graph.EdgeID
			srcSide bool
		}{{rec.Src, rec.SrcPrev, true}, {rec.Dst, rec.DstPrev, false}} {
			if side.prev == 0 {
				continue
			}
			prec, ok := relLive[side.prev]
			if !ok {
				r.addf("rel %d: prev pointer %d names a dead record", id, side.prev)
				continue
			}
			if prec.Src != side.n && prec.Dst != side.n {
				r.addf("rel %d: prev %d does not touch shared node %d", id, side.prev, side.n)
				continue
			}
			nrec, err := db.nodes.Get(side.n)
			if err != nil {
				continue // endpoint readability is reported in pass 1
			}
			var next graph.EdgeID
			switch {
			case nrec.Dense && side.srcSide:
				if prec.Src != side.n {
					r.addf("rel %d: prev %d in node %d's out-chain does not originate there", id, side.prev, side.n)
					continue
				}
				next = prec.SrcNext
			case nrec.Dense:
				if prec.Dst != side.n {
					r.addf("rel %d: prev %d in node %d's in-chain does not terminate there", id, side.prev, side.n)
					continue
				}
				next = prec.DstNext
			case prec.Src == side.n:
				next = prec.SrcNext
			default:
				next = prec.DstNext
			}
			if next != id {
				r.addf("rel %d: prev %d next-pointer on node %d does not point back", id, side.prev, side.n)
			}
		}
	}

	// Pass 2: node records and their chains.
	labelLive := make(map[graph.TypeID]map[uint64]bool)
	for id := uint64(1); id <= nodeHigh; id++ {
		n := graph.NodeID(id)
		rec, err := db.nodes.Get(n)
		if err != nil {
			r.addf("node %d: unreadable: %v", id, err)
			continue
		}
		if !rec.InUse {
			continue
		}
		r.Nodes++
		if rec.Label != graph.NilType {
			if db.LabelName(rec.Label) == "" {
				r.addf("node %d: unknown label %d", id, rec.Label)
			}
			m := labelLive[rec.Label]
			if m == nil {
				m = make(map[uint64]bool)
				labelLive[rec.Label] = m
			}
			m[id] = true
		}
		var out, in uint64
		if rec.Dense {
			out, in = db.checkDenseChains(r, n, rec, maxHops)
		} else {
			out, in = db.checkSparseChain(r, n, rec, maxHops)
		}
		chainOut += out
		chainIn += in
		if uint64(rec.DegOut) != out {
			r.addf("node %d: cached out-degree %d, chain has %d", id, rec.DegOut, out)
		}
		if uint64(rec.DegIn) != in {
			r.addf("node %d: cached in-degree %d, chain has %d", id, rec.DegIn, in)
		}
		r.Props += db.checkPropChain(r, fmt.Sprintf("node %d", id), rec.FirstProp, maxHops)
	}

	// Every live relationship must be reachable from both endpoints.
	if chainOut != liveRels {
		r.addf("store holds %d live relationships but chains reach %d on the out side", liveRels, chainOut)
	}
	if chainIn != liveRels {
		r.addf("store holds %d live relationships but chains reach %d on the in side", liveRels, chainIn)
	}

	// Label scan store vs node records, both directions.
	db.catalogMu.RLock()
	nLabels := len(db.labels.byID)
	db.catalogMu.RUnlock()
	for l := 1; l <= nLabels; l++ {
		label := graph.TypeID(l)
		live := labelLive[label]
		b := db.labelScan.Nodes(label)
		if b != nil {
			b.ForEach(func(id uint64) bool {
				if !live[id] {
					r.addf("label scan %q lists node %d, which is dead or labelled otherwise", db.LabelName(label), id)
				}
				return true
			})
			for id := range live {
				if !b.Contains(id) {
					r.addf("node %d has label %q but is missing from the label scan store", id, db.LabelName(label))
				}
			}
		} else if len(live) > 0 {
			r.addf("label %q has %d live nodes but no label scan entry", db.LabelName(label), len(live))
		}
	}

	// Schema indexes: every posting must be a live node of the indexed
	// label whose stored property equals the indexed value, and every
	// live node of the label whose property is set must be posted under
	// its value — a label scan pruned by the index would miss it.
	db.indexMu.RLock()
	keys := make([]indexKey, 0, len(db.indexes))
	for k := range db.indexes {
		keys = append(keys, k)
	}
	db.indexMu.RUnlock()
	rd := db.Reader()
	for _, k := range keys {
		ix := db.index(k.label, k.key)
		if ix == nil {
			continue
		}
		type posting struct {
			id  uint64
			key string // graph.Value.Key of the value
		}
		posted := make(map[posting]bool)
		ix.ForEach(func(v graph.Value, ids *bitmap.Bitmap) bool {
			var live []graph.NodeID
			ids.ForEach(func(id uint64) bool {
				posted[posting{id, v.Key()}] = true
				if !labelLive[k.label][id] {
					r.addf("index (%s,%s): entry %v -> dead or mislabelled node %d",
						db.LabelName(k.label), db.PropKeyName(k.key), v, id)
				} else {
					live = append(live, graph.NodeID(id))
				}
				return true
			})
			rd.eachNodeProp(live, k.key, func(id graph.NodeID, got graph.Value, err error) bool {
				if err != nil {
					r.addf("index (%s,%s): node %d property unreadable: %v",
						db.LabelName(k.label), db.PropKeyName(k.key), id, err)
				} else if got.Key() != v.Key() {
					r.addf("index (%s,%s): node %d indexed under %v but stores %v",
						db.LabelName(k.label), db.PropKeyName(k.key), id, v, got)
				}
				return true
			})
			return true
		})
		live := make([]graph.NodeID, 0, len(labelLive[k.label]))
		for id := range labelLive[k.label] {
			live = append(live, graph.NodeID(id))
		}
		slices.Sort(live)
		rd.eachNodeProp(live, k.key, func(id graph.NodeID, got graph.Value, err error) bool {
			// An unreadable chain is reported with the node.
			if err == nil && !got.IsNil() && !posted[posting{uint64(id), got.Key()}] {
				r.addf("index (%s,%s): node %d stores %v but is not posted under it",
					db.LabelName(k.label), db.PropKeyName(k.key), id, got)
			}
			return true
		})
	}
	rd.Close()

	// Allocator invariants.
	db.checkAllocator(r, "nodes", db.nodes.RecordFile, func(id uint64) (bool, error) {
		rec, err := db.nodes.Get(graph.NodeID(id))
		return rec.InUse, err
	})
	db.checkAllocator(r, "rels", db.rels.RecordFile, func(id uint64) (bool, error) {
		rec, err := db.rels.Get(graph.EdgeID(id))
		return rec.InUse, err
	})

	return r
}

// checkAllocator verifies no freed id holds a live record.
func (db *DB) checkAllocator(r *IntegrityReport, store string, f *storage.RecordFile, live func(uint64) (bool, error)) {
	high := f.HighWater()
	for _, id := range f.FreeIDs() {
		if id == 0 || id > high {
			r.addf("%s: free list holds id %d outside [1,%d]", store, id, high)
			continue
		}
		inUse, err := live(id)
		if err != nil {
			r.addf("%s: free id %d unreadable: %v", store, id, err)
			continue
		}
		if inUse {
			r.addf("%s: id %d is both free and in use", store, id)
		}
	}
}

// checkSparseChain walks a sparse node's single mixed chain, returning
// the out- and in-degree it found.
func (db *DB) checkSparseChain(r *IntegrityReport, n graph.NodeID, rec storage.NodeRecord, maxHops uint64) (out, in uint64) {
	cur := rec.FirstRel
	var hops uint64
	for cur != 0 {
		if hops++; hops > maxHops {
			r.addf("node %d: relationship chain does not terminate (cycle at rel %d)", n, cur)
			return
		}
		rrec, err := db.rels.Get(cur)
		if err != nil {
			r.addf("node %d: chain rel %d unreadable: %v", n, cur, err)
			return
		}
		if !rrec.InUse {
			r.addf("node %d: chain reaches dead relationship %d", n, cur)
			return
		}
		switch {
		case rrec.Src == n && rrec.Dst == n:
			out++
			in++
			cur = rrec.SrcNext // self-loops ride the source slots
		case rrec.Src == n:
			out++
			cur = rrec.SrcNext
		case rrec.Dst == n:
			in++
			cur = rrec.DstNext
		default:
			r.addf("node %d: chain rel %d does not touch the node (src %d, dst %d)", n, cur, rrec.Src, rrec.Dst)
			return
		}
	}
	return
}

// checkDenseChains walks a dense node's group chain and each group's
// out/in chains.
func (db *DB) checkDenseChains(r *IntegrityReport, n graph.NodeID, rec storage.NodeRecord, maxHops uint64) (out, in uint64) {
	seen := make(map[graph.TypeID]bool)
	gid := uint64(rec.FirstRel)
	var ghops uint64
	for gid != 0 {
		if ghops++; ghops > maxHops {
			r.addf("node %d: group chain does not terminate (cycle at group %d)", n, gid)
			return
		}
		g, err := db.groups.Get(gid)
		if err != nil {
			r.addf("node %d: group %d unreadable: %v", n, gid, err)
			return
		}
		if !g.InUse {
			r.addf("node %d: group chain reaches dead group %d", n, gid)
			return
		}
		r.Groups++
		if seen[g.Type] {
			r.addf("node %d: duplicate group for relationship type %d", n, g.Type)
		}
		seen[g.Type] = true

		cur := g.FirstOut
		var hops uint64
		for cur != 0 {
			if hops++; hops > maxHops {
				r.addf("node %d: dense out-chain (type %d) does not terminate", n, g.Type)
				break
			}
			rrec, err := db.rels.Get(cur)
			if err != nil {
				r.addf("node %d: dense out-chain rel %d unreadable: %v", n, cur, err)
				break
			}
			if !rrec.InUse {
				r.addf("node %d: dense out-chain reaches dead relationship %d", n, cur)
				break
			}
			if rrec.Src != n {
				r.addf("node %d: dense out-chain rel %d has src %d", n, cur, rrec.Src)
				break
			}
			if rrec.Type != g.Type {
				r.addf("node %d: rel %d of type %d filed under group type %d", n, cur, rrec.Type, g.Type)
			}
			out++
			cur = rrec.SrcNext
		}

		cur = g.FirstIn
		hops = 0
		for cur != 0 {
			if hops++; hops > maxHops {
				r.addf("node %d: dense in-chain (type %d) does not terminate", n, g.Type)
				break
			}
			rrec, err := db.rels.Get(cur)
			if err != nil {
				r.addf("node %d: dense in-chain rel %d unreadable: %v", n, cur, err)
				break
			}
			if !rrec.InUse {
				r.addf("node %d: dense in-chain reaches dead relationship %d", n, cur)
				break
			}
			if rrec.Dst != n {
				r.addf("node %d: dense in-chain rel %d has dst %d", n, cur, rrec.Dst)
				break
			}
			if rrec.Type != g.Type {
				r.addf("node %d: rel %d of type %d filed under group type %d", n, cur, rrec.Type, g.Type)
			}
			in++
			cur = rrec.DstNext
		}
		gid = g.Next
	}
	return
}

// checkPropChain walks one property chain, verifying termination,
// liveness and value decodability. Returns the number of records
// reached.
func (db *DB) checkPropChain(r *IntegrityReport, owner string, first uint64, maxHops uint64) uint64 {
	var count uint64
	cur := first
	maxProp := db.props.HighWater() + 1
	if maxProp > maxHops {
		maxHops = maxProp
	}
	var hops uint64
	for cur != 0 {
		if hops++; hops > maxHops {
			r.addf("%s: property chain does not terminate (cycle at prop %d)", owner, cur)
			return count
		}
		prec, err := db.props.Get(cur)
		if err != nil {
			r.addf("%s: property record %d unreadable: %v", owner, cur, err)
			return count
		}
		if !prec.InUse {
			r.addf("%s: property chain reaches dead record %d", owner, cur)
			return count
		}
		count++
		if _, err := db.decodePropValue(prec); err != nil {
			r.addf("%s: property %d undecodable: %v", owner, cur, err)
		}
		cur = prec.Next
	}
	return count
}
