package sparkdb

import (
	"fmt"
	"math/rand"
	"testing"

	"twigraph/internal/graph"
	"twigraph/internal/vfs"
)

// columnModel drives one user type's attribute columns through a byte
// stream of operations and checks them against a []graph.Value
// reference per attribute after every step.
type columnModel struct {
	t     testing.TB
	db    *DB
	user  graph.TypeID
	tweet graph.TypeID
	attrs []graph.AttrID
	kinds []graph.Kind
	ref   [][]graph.Value // attribute index -> seq-1 -> value
	n     int             // live users; ref rows beyond a column's last write are nil
}

// maxModelObjects bounds the users one op stream creates.
const maxModelObjects = 200

// The model's columns: one per typed slice, an indexed int column whose
// equality Select is answered by the inverted index, and an indexed
// string column.
var modelColumns = []struct {
	name    string
	kind    graph.Kind
	indexed bool
}{
	{"count", graph.KindInt, false},
	{"flag", graph.KindBool, false},
	{"score", graph.KindFloat, false},
	{"label", graph.KindString, false},
	{"uid", graph.KindInt, true},
	{"tag", graph.KindString, true},
}

func newColumnModel(t testing.TB) *columnModel {
	m := &columnModel{t: t, db: New(Config{})}
	var err error
	if m.user, err = m.db.NewNodeType("user"); err != nil {
		t.Fatal(err)
	}
	if m.tweet, err = m.db.NewNodeType("tweet"); err != nil {
		t.Fatal(err)
	}
	for _, c := range modelColumns {
		id, err := m.db.NewAttribute(m.user, c.name, c.kind, c.indexed)
		if err != nil {
			t.Fatal(err)
		}
		m.attrs = append(m.attrs, id)
		m.kinds = append(m.kinds, c.kind)
		m.ref = append(m.ref, nil)
	}
	// A tweet, so GetInts sees an OID of another type.
	if _, err := m.db.NewNode(m.tweet); err != nil {
		t.Fatal(err)
	}
	return m
}

// valueOf maps a byte to a value of kind k from a small domain, so
// values repeat and comparisons tie; zero payloads (0, false, 0.0, "")
// are part of every domain.
func valueOf(k graph.Kind, b byte) graph.Value {
	switch k {
	case graph.KindInt:
		return graph.IntValue(int64(int8(b)) % 12)
	case graph.KindBool:
		return graph.BoolValue(b&1 == 1)
	case graph.KindFloat:
		return graph.FloatValue(float64(int8(b)%12) / 2)
	case graph.KindString:
		return graph.StringValue(fmt.Sprintf("%.*s", int(b%4), "abc"))
	}
	return graph.NilValue
}

// apply runs the op stream: each op reads up to three bytes.
func (m *columnModel) apply(ops []byte) {
	for len(ops) >= 3 {
		op, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		attr := int(a) % len(m.attrs)
		switch op % 8 {
		case 0, 1, 2, 3: // set a value
			if m.n > 0 {
				m.set(int(b)%m.n, attr, valueOf(m.kinds[attr], a^b))
			}
		case 4: // clear to nil
			if m.n > 0 {
				m.set(int(b)%m.n, attr, graph.NilValue)
			}
		case 5: // grow the type one object past the column's end
			if m.n < maxModelObjects {
				if _, err := m.db.NewNode(m.user); err != nil {
					m.t.Fatal(err)
				}
				m.n++
			}
		case 6: // grow by a batch that sizes one column
			rows := 1 + int(b)%70
			if m.n+rows > maxModelObjects {
				continue
			}
			vals := make([]graph.Value, rows)
			for i := range vals {
				vals[i] = valueOf(m.kinds[attr], b+byte(i)*37)
			}
			if _, err := m.db.NewNodeBatch(m.user, []graph.AttrID{m.attrs[attr]}, rows, vals); err != nil {
				m.t.Fatal(err)
			}
			for i, v := range vals {
				m.refSet(m.n+i, attr, v)
			}
			m.n += rows
		case 7: // no write: checks only
		}
		m.check()
	}
}

func (m *columnModel) set(i, attr int, v graph.Value) {
	if err := m.db.SetAttribute(makeOID(m.user, uint64(i+1)), m.attrs[attr], v); err != nil {
		m.t.Fatal(err)
	}
	m.refSet(i, attr, v)
}

func (m *columnModel) refSet(i, attr int, v graph.Value) {
	for len(m.ref[attr]) <= i {
		m.ref[attr] = append(m.ref[attr], graph.NilValue)
	}
	m.ref[attr][i] = v
}

// want returns the reference value of attr on user i.
func (m *columnModel) want(attr, i int) graph.Value {
	if i < len(m.ref[attr]) {
		return m.ref[attr][i]
	}
	return graph.NilValue
}

// operands are the Select operands checked on every column: int, float
// between and on the int grid, nil, string and bool.
var operands = []graph.Value{
	graph.IntValue(0), graph.IntValue(3), graph.IntValue(-5), graph.IntValue(11), graph.IntValue(-1 << 63),
	graph.IntValue(1<<63 - 1), graph.FloatValue(2.5), graph.FloatValue(-3), graph.FloatValue(0), graph.NilValue,
	graph.StringValue(""), graph.StringValue("ab"), graph.BoolValue(true), graph.BoolValue(false),
}

func (m *columnModel) check() {
	t, db := m.t, m.db
	oids := make([]uint64, 0, m.n+2)
	for i := 0; i < m.n; i++ {
		oids = append(oids, makeOID(m.user, uint64(i+1)))
	}
	oids = append(oids, makeOID(m.tweet, 1), makeOID(m.user, uint64(m.n+1)))
	for a, attr := range m.attrs {
		name := modelColumns[a].name
		set := 0
		for i, oid := range oids {
			want := graph.NilValue
			if i < m.n {
				want = m.want(a, i)
			}
			if !want.IsNil() {
				set++
			}
			if got := db.GetAttribute(oid, attr); got != want {
				t.Fatalf("%s: GetAttribute(seq %d) = %v, want %v", name, i+1, got, want)
			}
		}
		before := db.RecordFetches()
		ints := db.GetInts(oids, attr, nil)
		if d := db.RecordFetches() - before; d != uint64(len(oids)) {
			t.Fatalf("%s: GetInts counted %d fetches for %d OIDs", name, d, len(oids))
		}
		for i, got := range ints {
			want := int64(0)
			if i < m.n {
				want = m.want(a, i).Int()
			}
			if got != want {
				t.Fatalf("%s: GetInts[%d] = %d, want %d", name, i, got, want)
			}
		}
		for _, x := range operands {
			for op := Eq; op <= LessEq; op++ {
				before := db.RecordFetches()
				got := db.Select(attr, op, x).Slice()
				fetches := db.RecordFetches() - before
				var want []uint64
				for i := 0; i < m.n; i++ {
					v := m.want(a, i)
					if v.IsNil() {
						continue
					}
					match := matchOp(v.Compare(x), op)
					if op == Eq && modelColumns[a].indexed {
						match = v.Key() == x.Key() // answered by the inverted index
					}
					if match {
						want = append(want, makeOID(m.user, uint64(i+1)))
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Select(%d, %v) = %v, want %v", name, op, x, got, want)
				}
				if !(op == Eq && modelColumns[a].indexed) && fetches != uint64(set) {
					t.Fatalf("%s: Select(%d, %v) counted %d fetches, want one per set value (%d)", name, op, x, fetches, set)
				}
			}
		}
	}
	if r := db.CheckIntegrity(); !r.OK() {
		t.Fatalf("integrity:\n%s", r)
	}
	fs := vfs.NewFaultFS()
	if err := db.SaveFS(fs, "/model.img"); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFS(fs, "/model.img")
	if err != nil {
		t.Fatal(err)
	}
	for a, attr := range m.attrs {
		for i := 0; i < m.n; i++ {
			oid := makeOID(m.user, uint64(i+1))
			if got, want := db2.GetAttribute(oid, attr), m.want(a, i); got != want {
				t.Fatalf("%s: seq %d loads as %v, saved %v", modelColumns[a].name, i+1, got, want)
			}
		}
	}
	if r := db2.CheckIntegrity(); !r.OK() {
		t.Fatalf("integrity after Save and Load:\n%s", r)
	}
}

// TestAttributeColumnModel runs random op streams: puts of each kind,
// clears to nil, growth one object and one batch at a time past the
// columns' ends, each step checked against the reference.
func TestAttributeColumnModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 3*100)
			rng.Read(ops)
			// Start with a few objects so early writes land.
			for i := 0; i < 4; i++ {
				ops[3*i] = 5
			}
			newColumnModel(t).apply(ops)
		})
	}
}

// FuzzAttributeColumn is TestAttributeColumnModel over fuzzer-chosen op
// streams.
func FuzzAttributeColumn(f *testing.F) {
	f.Add([]byte{5, 0, 0, 5, 0, 0, 0, 0, 1, 0, 1, 1, 4, 0, 1, 0, 2, 0, 0, 3, 1, 6, 4, 64, 7, 0, 0})
	f.Add([]byte{6, 0, 69, 6, 1, 69, 6, 2, 3, 6, 3, 3, 4, 3, 5, 0, 5, 200, 1, 9, 17, 2, 10, 128})
	f.Add([]byte{5, 0, 0, 0, 2, 0, 0, 2, 255, 0, 3, 4, 4, 2, 0, 0, 5, 1, 4, 5, 0, 5, 0, 0, 0, 4, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		newColumnModel(t).apply(ops)
	})
}
