package bitmap

import (
	"math/rand"
	"testing"
)

func TestAddRangeMatchesAddLoop(t *testing.T) {
	cases := []struct{ lo, hi uint64 }{
		{0, 0},
		{5, 5},
		{10, 300},
		{0, containerSize - 1},             // exactly one full container
		{100, containerSize + 100},         // spans a boundary
		{containerSize - 1, containerSize}, // two-element boundary straddle
		{3, 3*containerSize + 17},          // several full containers inside
		{7, 7 + arrayToBitmapThreshold},    // crosses the array→set threshold
		{1 << 40, 1<<40 + 100_000},         // high keys (OID-like values)
	}
	for _, tc := range cases {
		fast := New()
		fast.AddRange(tc.lo, tc.hi)
		slow := New()
		for v := tc.lo; ; v++ {
			slow.Add(v)
			if v == tc.hi {
				break
			}
		}
		if !fast.Equal(slow) {
			t.Errorf("AddRange(%d, %d) differs from Add loop", tc.lo, tc.hi)
		}
		if fast.Cardinality() != int(tc.hi-tc.lo+1) {
			t.Errorf("AddRange(%d, %d) cardinality = %d", tc.lo, tc.hi, fast.Cardinality())
		}
	}
	// Empty interval is a no-op.
	b := Of(1, 2, 3)
	b.AddRange(10, 9)
	if b.Cardinality() != 3 {
		t.Error("inverted range mutated the set")
	}
}

func TestAddRangeOntoExisting(t *testing.T) {
	for _, preset := range [][]uint64{
		{1, 50, 200, 70000},                      // array containers
		rangeSlice(0, arrayToBitmapThreshold+10), // a set container
	} {
		fast := Of(preset...)
		slow := Of(preset...)
		fast.AddRange(40, 66000)
		for v := uint64(40); v <= 66000; v++ {
			slow.Add(v)
		}
		if !fast.Equal(slow) {
			t.Errorf("AddRange over preset %v diverged", preset[:min(4, len(preset))])
		}
	}
}

func TestAddSortedMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]uint64, 0, 50_000)
	v := uint64(0)
	for len(vals) < cap(vals) {
		v += uint64(rng.Intn(40)) // duplicates (step 0) and gaps
		vals = append(vals, v)
	}
	fast := New()
	fast.AddSorted(vals)
	slow := New()
	for _, x := range vals {
		slow.Add(x)
	}
	if !fast.Equal(slow) {
		t.Fatal("AddSorted differs from Add loop")
	}
	// Merging a second overlapping run into existing containers.
	fast.AddSorted(vals[10_000:30_000])
	if !fast.Equal(slow) {
		t.Fatal("re-adding an overlapping sorted run changed the set")
	}
	// Dense run that converts array containers to sets.
	fast2 := Of(3, 99, 70001)
	slow2 := Of(3, 99, 70001)
	run := rangeSlice(0, 5000)
	fast2.AddSorted(run)
	for _, x := range run {
		slow2.Add(x)
	}
	if !fast2.Equal(slow2) {
		t.Fatal("dense AddSorted over array container diverged")
	}
}

func rangeSlice(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func BenchmarkAddRangeVsLoop(b *testing.B) {
	const n = 1_000_000
	b.Run("AddRange", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm := New()
			bm.AddRange(1, n)
		}
	})
	b.Run("AddLoop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm := New()
			for v := uint64(1); v <= n; v++ {
				bm.Add(v)
			}
		}
	})
}

func BenchmarkAddSortedVsLoop(b *testing.B) {
	vals := make([]uint64, 500_000)
	v := uint64(0)
	for i := range vals {
		v += 3
		vals[i] = v
	}
	b.Run("AddSorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm := New()
			bm.AddSorted(vals)
		}
	})
	b.Run("AddLoop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bm := New()
			for _, x := range vals {
				bm.Add(x)
			}
		}
	})
}

// TestFromWordsMatchesAddLoop reads random dense bitsets, sparse and
// full, spanning containers, into sets: each equals the Add loop over
// its bits, with the same array/bitset container mix.
func TestFromWordsMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const base = 3 << 40
	for _, density := range []float64{0, 0.001, 0.05, 0.0626, 0.5, 1} {
		for _, n := range []int{0, 1, wordsPerSet - 1, wordsPerSet, 2*wordsPerSet + 5} {
			words := make([]uint64, n)
			slow := New()
			for i := 0; i < n*64; i++ {
				if rng.Float64() < density {
					words[i>>6] |= 1 << (i & 63)
					slow.Add(base + uint64(i))
				}
			}
			fast := FromWords(base, words)
			if !fast.Equal(slow) {
				t.Errorf("density %v, %d words: FromWords differs from the Add loop", density, n)
			}
			fa, fr, fb := fast.ContainerCounts()
			sa, sr, sb := slow.ContainerCounts()
			if fa != sa || fr != sr || fb != sb {
				t.Errorf("density %v, %d words: containers %d/%d/%d, Add loop %d/%d/%d", density, n, fa, fr, fb, sa, sr, sb)
			}
		}
	}
}
