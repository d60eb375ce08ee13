package spmat

import (
	"reflect"
	"testing"

	"twigraph/internal/bitmap"
	"twigraph/internal/obs"
	"twigraph/internal/par"
)

// memSource is an in-memory adjacency: per-edge endpoint lists (so
// parallel edges repeat). With lend set it also materialises each row
// as a distinct-neighbor bitmap, exercising the lent-row fast paths.
type memSource struct {
	edges map[uint64][]uint64
	lend  bool
	rows  map[uint64]*bitmap.Bitmap
}

func newMemSource(lend bool, edges map[uint64][]uint64) *memSource {
	s := &memSource{edges: edges, lend: lend}
	if lend {
		s.rows = make(map[uint64]*bitmap.Bitmap, len(edges))
		for id, ends := range edges {
			b := bitmap.New()
			for _, e := range ends {
				b.Add(e)
			}
			s.rows[id] = b
		}
	}
	return s
}

func (s *memSource) Row(id uint64) Row {
	if !s.lend {
		return Row{}
	}
	b := s.rows[id]
	if b == nil {
		return Row{}
	}
	return Row{Cols: b, Edges: len(s.edges[id])}
}

func (s *memSource) Lends() bool { return s.lend }

func (s *memSource) ForEachEdge(id uint64, fn func(col uint64) bool) error {
	for _, e := range s.edges[id] {
		if !fn(e) {
			return nil
		}
	}
	return nil
}

func TestAccumBaseAndReuse(t *testing.T) {
	var pool AccumPool
	a := pool.Get(1 << 40) // a typed-OID-style base far from zero
	a.Add(1<<40+3, 2)
	a.Add(1<<40+3, 1)
	a.Add(1<<40+7, 5)
	got := map[uint64]int64{}
	a.ForEach(func(col uint64, c int64) { got[col] = c })
	want := map[uint64]int64{1<<40 + 3: 3, 1<<40 + 7: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accum = %v, want %v", got, want)
	}
	pool.Put(a)
	// Reuse under a different base: old dirt must not leak through.
	b := pool.Get(0)
	if b.Len() != 0 {
		t.Fatalf("recycled accum has %d dirty columns", b.Len())
	}
	b.Add(3, 1)
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	b.ForEach(func(col uint64, c int64) {
		if col != 3 || c != 1 {
			t.Fatalf("got (%d,%d), want (3,1)", col, c)
		}
	})
	pool.Put(b)
}

func TestWeightedFrontier(t *testing.T) {
	src := newMemSource(false, map[uint64][]uint64{
		1: {9, 5, 9, 2, 9}, // parallel edges to 9
	})
	var pool AccumPool
	f, err := WeightedFrontier(src, 1, 0, &pool)
	if err != nil {
		t.Fatal(err)
	}
	want := []WeightedID{{ID: 2, W: 1}, {ID: 5, W: 1}, {ID: 9, W: 3}}
	if !reflect.DeepEqual(f, want) {
		t.Fatalf("frontier = %v, want %v", f, want)
	}
}

// gatherAll is the reference result: per-edge path counting over two
// hops, straight from the edge lists.
func gatherAll(first, second map[uint64][]uint64, anchor uint64) map[uint64]int64 {
	out := map[uint64]int64{}
	for _, mid := range first[anchor] {
		for _, end := range second[mid] {
			out[end]++
		}
	}
	return out
}

func TestGatherMatchesPerEdgeReference(t *testing.T) {
	first := map[uint64][]uint64{1: {2, 3, 3, 4}}
	second := map[uint64][]uint64{
		2: {10, 11},
		3: {11, 11, 12}, // parallel edges: non-uniform row
		4: {12},
	}
	want := gatherAll(first, second, 1)
	for _, lend := range []bool{false, true} {
		var pool AccumPool
		f, err := WeightedFrontier(newMemSource(false, first), 1, 0, &pool)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			acc, err := Gather(newMemSource(lend, second), f, 0, workers, par.Metrics{}, &pool)
			if err != nil {
				t.Fatal(err)
			}
			got := map[uint64]int64{}
			acc.ForEach(func(col uint64, c int64) { got[col] = c })
			pool.Put(acc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lend=%v workers=%d: gather = %v, want %v", lend, workers, got, want)
			}
		}
	}
}

func TestGateThresholds(t *testing.T) {
	g := NewGate(6400, 100, 1000) // meanDeg 10, threshold 6400/64 = 100 edges
	if g.UseMatrix(9) {
		t.Fatal("9 rows x deg 10 = 90 expected edges should stay navigational")
	}
	if !g.UseMatrix(10) {
		t.Fatal("10 rows x deg 10 = 100 expected edges should go algebraic")
	}
	if g.UseMatrix(0) || NewGate(0, 0, 0).UseMatrix(100) {
		t.Fatal("degenerate inputs must stay navigational")
	}
	if !g.UsePull(10, 140) || g.UsePull(9, 140) {
		t.Fatal("UsePull threshold broken")
	}
}

// TestLentGateThreshold pins the lent-row divisor the sparkdb 2-hop
// gate uses: with it, a hop goes algebraic once it is expected to touch
// Candidates/LentDensityFraction edges, 64x sooner than the default.
func TestLentGateThreshold(t *testing.T) {
	g := NewGate(LentDensityFraction*100, 100, 1000).WithFraction(LentDensityFraction) // meanDeg 10, threshold 100 edges
	if g.UseMatrix(9) {
		t.Fatal("9 rows x deg 10 = 90 expected edges should stay navigational")
	}
	if !g.UseMatrix(10) {
		t.Fatal("10 rows x deg 10 = 100 expected edges should go algebraic")
	}
	if NewGate(LentDensityFraction*100, 100, 1000).UseMatrix(10) {
		t.Fatal("the default divisor must not admit the lent-row threshold")
	}
}

// bfsRef is the naive reference BFS length.
func bfsRef(edges map[uint64][]uint64, src, dst uint64, maxHops int) (int, bool) {
	if src == dst {
		return 0, true
	}
	visited := map[uint64]bool{src: true}
	frontier := []uint64{src}
	for hop := 1; hop <= maxHops; hop++ {
		var next []uint64
		for _, u := range frontier {
			for _, v := range edges[u] {
				if v == dst {
					return hop, true
				}
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
		}
		if len(next) == 0 {
			return 0, false
		}
		frontier = next
	}
	return 0, false
}

func TestBFSLengthMatchesReference(t *testing.T) {
	fwd := map[uint64][]uint64{
		0: {1, 2}, 1: {3}, 2: {3, 4}, 3: {5}, 4: {5}, 5: {6}, 7: {0},
	}
	rev := map[uint64][]uint64{}
	universe := bitmap.New()
	for u, vs := range fwd {
		universe.Add(u)
		for _, v := range vs {
			rev[v] = append(rev[v], u)
			universe.Add(v)
		}
	}
	reg := obs.NewRegistry()
	m := MetricsFrom(reg)
	g := NewGate(universe.Cardinality(), universe.Cardinality(), 9)
	for _, lend := range []bool{false, true} {
		fsrc, rsrc := newMemSource(lend, fwd), newMemSource(lend, rev)
		for src := uint64(0); src <= 7; src++ {
			for dst := uint64(0); dst <= 7; dst++ {
				wantLen, wantFound := bfsRef(fwd, src, dst, 4)
				for _, workers := range []int{1, 4} {
					gotLen, gotFound, err := BFSLength(
						fsrc, rsrc, universe,
						src, dst, 4, workers, g, par.Metrics{}, m, nil)
					if err != nil {
						t.Fatal(err)
					}
					if gotLen != wantLen || gotFound != wantFound {
						t.Fatalf("BFS %d->%d lend=%v w%d = (%d,%v), want (%d,%v)",
							src, dst, lend, workers, gotLen, gotFound, wantLen, wantFound)
					}
				}
			}
		}
		if !lend && reg.Counter(CPullRounds).Load() != 0 {
			t.Fatal("pull kernel ran against streamed rows")
		}
	}
	// The tiny universe makes every level satisfy the pull rule, so with
	// lent reverse rows the direction-optimizing switch must have fired.
	if reg.Counter(CPullRounds).Load() == 0 {
		t.Fatal("pull kernel never ran on a dense-frontier BFS over lent rows")
	}
	// Push-only expansion (nil universe) must agree too: 0→2→3→5→6.
	l, found, err := BFSLength(newMemSource(false, fwd), nil, nil, 0, 6, 4, 1, g, par.Metrics{}, m, nil)
	if err != nil || !found || l != 4 {
		t.Fatalf("push-only BFS = (%d,%v,%v), want (4,true,nil)", l, found, err)
	}
	if reg.Counter(CPushRounds).Load() == 0 {
		t.Fatal("push kernel never ran")
	}
}

func TestPushPullAgreeOnLentRows(t *testing.T) {
	fwd := map[uint64][]uint64{0: {1, 2, 3}, 1: {2, 4}, 2: {4}, 3: {4}, 4: {0}}
	rev := map[uint64][]uint64{}
	universe := bitmap.New()
	for u, vs := range fwd {
		universe.Add(u)
		for _, v := range vs {
			rev[v] = append(rev[v], u)
			universe.Add(v)
		}
	}
	visited := bitmap.Of(0)
	frontier := []uint64{0}
	push, err := PushNext(newMemSource(true, fwd), frontier, visited, 1, par.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	candidates := bitmap.AndNot(universe, visited)
	pull, err := PullNext(newMemSource(true, rev), candidates.Slice(), bitmap.Of(0), 1, par.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if !push.Equal(pull) {
		t.Fatalf("push level %v != pull level %v", push.Slice(), pull.Slice())
	}
}

// The mask kernels must stay allocation-free once the pooled
// accumulator has grown to the candidate range — the steady-state
// property the micro-benchmarks report and this test pins.
func TestGatherCountsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the assertion only holds unraced")
	}
	second := map[uint64][]uint64{}
	frontier := make([]WeightedID, 0, 64)
	for id := uint64(0); id < 64; id++ {
		for e := uint64(0); e < 32; e++ {
			second[id] = append(second[id], (id*31+e*7)%2048)
		}
		frontier = append(frontier, WeightedID{ID: id, W: int64(id%3) + 1})
	}
	src := newMemSource(false, second)
	var pool AccumPool
	warm := pool.Get(0)
	if err := GatherCounts(src, frontier, warm); err != nil {
		t.Fatal(err)
	}
	pool.Put(warm)
	allocs := testing.AllocsPerRun(20, func() {
		acc := pool.Get(0)
		if err := GatherCounts(src, frontier, acc); err != nil {
			t.Fatal(err)
		}
		pool.Put(acc)
	})
	if allocs > 0 {
		t.Fatalf("GatherCounts steady state allocates %.1f objects/op, want 0", allocs)
	}
}
