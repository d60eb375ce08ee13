package sparkdb

import "fmt"

// IntegrityReport is the result of a structural integrity check. Total
// counts every violation found; Violations holds the first
// maxViolations of them verbatim.
type IntegrityReport struct {
	Objects uint64 // live objects checked
	Edges   uint64 // live edges checked
	Attrs   uint64 // attribute values checked

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
		return fmt.Sprintf("ok: %d objects (%d edges), %d attribute values checked",
			r.Objects, r.Edges, r.Attrs)
	}
	s := fmt.Sprintf("%d violations (%d objects checked):", r.Total, r.Objects)
	for _, v := range r.Violations {
		s += "\n  " + v
	}
	if r.Total > len(r.Violations) {
		s += fmt.Sprintf("\n  ... and %d more", r.Total-len(r.Violations))
	}
	return s
}

// CheckIntegrity verifies the cross-structure invariants the bitmap
// engine relies on:
//
//   - every member OID carries its type's id in the high bits and a
//     sequence within the allocator range;
//   - edge endpoint arrays are equal-length and every live edge's
//     endpoints are live node objects;
//   - the out/in link maps agree with the endpoint arrays in both
//     directions (every edge linked under exactly its tail and head,
//     every linked edge live with matching endpoints);
//   - materialised neighbor indexes contain exactly the endpoint pairs
//     of the live edges;
//   - attribute values sit on live objects of the declared type with
//     the declared kind, each column's set count matches its non-nil
//     entries, and inverted indexes match the value columns in both
//     directions;
//   - the global object count equals the sum of the per-type bitmaps.
//
// A loaded image that fails these checks was corrupted in storage (or
// the load path is buggy); query results on it are unreliable.
func (db *DB) CheckIntegrity() *IntegrityReport {
	r := &IntegrityReport{}
	db.mu.RLock()
	defer db.mu.RUnlock()

	var totalLive uint64
	for _, ti := range db.types {
		card := uint64(ti.objects.Cardinality())
		totalLive += card
		r.Objects += card
		ti.objects.ForEach(func(oid uint64) bool {
			if ObjectType(oid) != ti.id {
				r.addf("type %s: member %d encodes type %d", ti.name, oid, ObjectType(oid))
			}
			if seq := seqOf(oid); seq == 0 || seq > ti.nextSeq {
				r.addf("type %s: member %d has sequence %d outside [1,%d]", ti.name, oid, seq, ti.nextSeq)
			}
			return true
		})
		if ti.isEdge {
			db.checkEdgeType(r, ti)
		} else if len(ti.tails) != 0 || len(ti.heads) != 0 || len(ti.outLinks) != 0 || len(ti.inLinks) != 0 {
			r.addf("node type %s carries edge state", ti.name)
		}
	}
	if totalLive != db.objects {
		r.addf("object count %d does not match sum of type bitmaps %d", db.objects, totalLive)
	}

	for _, ai := range db.attrs {
		db.checkAttr(r, ai)
	}
	return r
}

// live reports whether oid is a member of its own type's bitmap.
// Caller holds db.mu.
func (db *DB) live(oid uint64) bool {
	ti := db.typeInfo(ObjectType(oid))
	return ti != nil && ti.objects.Contains(oid)
}

func (db *DB) checkEdgeType(r *IntegrityReport, ti *typeInfo) {
	if len(ti.tails) != len(ti.heads) {
		r.addf("edge type %s: %d tails but %d heads", ti.name, len(ti.tails), len(ti.heads))
		return
	}
	if n := uint64(len(ti.tails)); n != ti.nextSeq {
		r.addf("edge type %s: %d endpoint slots but allocator at %d", ti.name, n, ti.nextSeq)
	}

	type pair struct{ tail, head uint64 }
	var pairs map[pair]bool
	if ti.materialized {
		pairs = make(map[pair]bool)
	}

	ti.objects.ForEach(func(oid uint64) bool {
		r.Edges++
		seq := seqOf(oid)
		if seq == 0 || seq > uint64(len(ti.tails)) {
			r.addf("edge type %s: edge %d has no endpoint slot", ti.name, oid)
			return true
		}
		tail, head := ti.tails[seq-1], ti.heads[seq-1]
		for _, end := range []struct {
			oid  uint64
			what string
		}{{tail, "tail"}, {head, "head"}} {
			eti := db.typeInfo(ObjectType(end.oid))
			switch {
			case eti == nil:
				r.addf("edge type %s: edge %d %s %d has unknown type", ti.name, oid, end.what, end.oid)
			case eti.isEdge:
				r.addf("edge type %s: edge %d %s %d is an edge object", ti.name, oid, end.what, end.oid)
			case !eti.objects.Contains(end.oid):
				r.addf("edge type %s: edge %d %s %d is not a live object", ti.name, oid, end.what, end.oid)
			}
		}
		if b := ti.outLinks[tail]; b == nil || !b.Contains(oid) {
			r.addf("edge type %s: edge %d missing from outLinks[%d]", ti.name, oid, tail)
		}
		if b := ti.inLinks[head]; b == nil || !b.Contains(oid) {
			r.addf("edge type %s: edge %d missing from inLinks[%d]", ti.name, oid, head)
		}
		if ti.materialized {
			pairs[pair{tail, head}] = true
			if b := ti.outNbrs[tail]; b == nil || !b.Contains(head) {
				r.addf("edge type %s: pair %d->%d missing from outNbrs", ti.name, tail, head)
			}
			if b := ti.inNbrs[head]; b == nil || !b.Contains(tail) {
				r.addf("edge type %s: pair %d->%d missing from inNbrs", ti.name, tail, head)
			}
		}
		return true
	})

	// Reverse direction: every linked edge must be live with matching
	// endpoints.
	for tail, b := range ti.outLinks {
		b.ForEach(func(oid uint64) bool {
			if !ti.objects.Contains(oid) {
				r.addf("edge type %s: outLinks[%d] lists dead edge %d", ti.name, tail, oid)
				return true
			}
			if seq := seqOf(oid); seq >= 1 && seq <= uint64(len(ti.tails)) && ti.tails[seq-1] != tail {
				r.addf("edge type %s: outLinks[%d] lists edge %d whose tail is %d", ti.name, tail, oid, ti.tails[seq-1])
			}
			return true
		})
	}
	for head, b := range ti.inLinks {
		b.ForEach(func(oid uint64) bool {
			if !ti.objects.Contains(oid) {
				r.addf("edge type %s: inLinks[%d] lists dead edge %d", ti.name, head, oid)
				return true
			}
			if seq := seqOf(oid); seq >= 1 && seq <= uint64(len(ti.heads)) && ti.heads[seq-1] != head {
				r.addf("edge type %s: inLinks[%d] lists edge %d whose head is %d", ti.name, head, oid, ti.heads[seq-1])
			}
			return true
		})
	}
	if ti.materialized {
		for tail, b := range ti.outNbrs {
			b.ForEach(func(head uint64) bool {
				if !pairs[pair{tail, head}] {
					r.addf("edge type %s: outNbrs lists pair %d->%d with no live edge", ti.name, tail, head)
				}
				return true
			})
		}
		for head, b := range ti.inNbrs {
			b.ForEach(func(tail uint64) bool {
				if !pairs[pair{tail, head}] {
					r.addf("edge type %s: inNbrs lists pair %d->%d with no live edge", ti.name, tail, head)
				}
				return true
			})
		}
	}
}

func (db *DB) checkAttr(r *IntegrityReport, ai *attrInfo) {
	set := 0
	for i, v := range ai.values {
		if v.IsNil() {
			continue
		}
		set++
		r.Attrs++
		oid := makeOID(ai.typeID, uint64(i+1))
		if !db.live(oid) {
			r.addf("attr %s: value on dead object %d", ai.name, oid)
		}
		if v.Kind() != ai.kind {
			r.addf("attr %s: object %d holds kind %v, declared %v", ai.name, oid, v.Kind(), ai.kind)
		}
		if ai.indexed {
			if b := ai.index[v.Key()]; b == nil || !b.Contains(oid) {
				r.addf("attr %s: object %d value %v missing from inverted index", ai.name, oid, v)
			}
		}
	}
	if set != ai.set {
		r.addf("attr %s: %d values stored but set count %d", ai.name, set, ai.set)
	}
	if !ai.indexed {
		if len(ai.index) != 0 || len(ai.keyVals) != 0 {
			r.addf("attr %s: unindexed attribute carries index state", ai.name)
		}
		return
	}
	for k, b := range ai.index {
		if b.IsEmpty() {
			r.addf("attr %s: empty posting list for key %q", ai.name, k)
		}
		kv, ok := ai.keyVals[k]
		if !ok {
			r.addf("attr %s: posting key %q has no value record", ai.name, k)
		} else if kv.Key() != k {
			r.addf("attr %s: value record for key %q re-keys to %q", ai.name, k, kv.Key())
		}
		b.ForEach(func(oid uint64) bool {
			v := ai.get(oid)
			if v.IsNil() {
				r.addf("attr %s: index key %q lists object %d with no stored value", ai.name, k, oid)
			} else if v.Key() != k {
				r.addf("attr %s: object %d indexed under %q but stores key %q", ai.name, oid, k, v.Key())
			}
			return true
		})
	}
	if len(ai.keyVals) != len(ai.index) {
		r.addf("attr %s: %d value records for %d posting lists", ai.name, len(ai.keyVals), len(ai.index))
	}
}
