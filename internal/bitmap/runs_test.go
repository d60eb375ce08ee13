package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// shapeValues builds value sets with the shapes that exercise all
// three representations: scattered singletons (arrays), contiguous
// blocks (runs), and dense-random regions (bitsets).
func shapeValues(rng *rand.Rand) []uint64 {
	var vals []uint64
	blocks := 1 + rng.Intn(6)
	for i := 0; i < blocks; i++ {
		base := uint64(rng.Intn(3)) << containerBits
		switch rng.Intn(3) {
		case 0: // scattered
			for n := rng.Intn(200); n > 0; n-- {
				vals = append(vals, base+uint64(rng.Intn(containerSize)))
			}
		case 1: // contiguous block
			start := uint64(rng.Intn(containerSize - 1))
			length := uint64(rng.Intn(9000))
			for v := start; v <= start+length && v < containerSize; v++ {
				vals = append(vals, base+v)
			}
		default: // dense random region
			start := rng.Intn(containerSize / 2)
			for n := rng.Intn(6000); n > 0; n-- {
				vals = append(vals, base+uint64(start+rng.Intn(16000)))
			}
		}
	}
	return vals
}

func fromValues(vals []uint64) *Bitmap {
	b := New()
	for _, v := range vals {
		b.Add(v)
	}
	return b
}

func TestOptimizeIsCanonicalAndLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		vals := shapeValues(rng)
		plain := fromValues(vals)
		// Same contents via a different construction path: sorted bulk.
		sorted := append([]uint64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		bulk := New()
		bulk.AddSorted(sorted)

		opt := plain.Clone().Optimize()
		opt2 := bulk.Clone().Optimize()
		if !opt.Equal(plain) {
			t.Fatalf("iter %d: Optimize changed contents", iter)
		}
		var w1, w2 bytes.Buffer
		if _, err := opt.WriteTo(&w1); err != nil {
			t.Fatal(err)
		}
		if _, err := opt2.WriteTo(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("iter %d: optimized serialization depends on construction history", iter)
		}
		// Idempotent: a second Optimize must not change the bytes.
		var w3 bytes.Buffer
		if _, err := opt.Optimize().WriteTo(&w3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w3.Bytes()) {
			t.Fatalf("iter %d: Optimize is not idempotent", iter)
		}
		// Thaw restores a v1 image with identical contents.
		thawed := opt.Clone().Thaw()
		if _, runs, _ := thawed.ContainerCounts(); runs != 0 || !thawed.Equal(plain) {
			t.Fatalf("iter %d: Thaw left runs or changed contents", iter)
		}
	}
}

func TestOptimizeRepresentationChoice(t *testing.T) {
	// One contiguous range: a single run beats both alternatives.
	r := New()
	r.AddRange(10, 60000)
	r.Optimize()
	if a, ru, s := r.ContainerCounts(); a != 0 || ru != 1 || s != 0 {
		t.Errorf("range container counts = %d/%d/%d, want 0/1/0", a, ru, s)
	}
	// Scattered sparse values: array wins (every value its own run).
	sp := Of(1, 5, 9, 100, 9000)
	sp.Optimize()
	if a, ru, s := sp.ContainerCounts(); a != 1 || ru != 0 || s != 0 {
		t.Errorf("sparse counts = %d/%d/%d, want 1/0/0", a, ru, s)
	}
	// Dense alternating bits: bitset wins (runs would need 4 bytes per
	// 2-bit period, arrays 2 bytes per value over the threshold).
	d := New()
	for v := uint64(0); v < containerSize; v += 2 {
		d.Add(v)
	}
	d.Optimize()
	if a, ru, s := d.ContainerCounts(); a != 0 || ru != 0 || s != 1 {
		t.Errorf("alternating counts = %d/%d/%d, want 0/0/1", a, ru, s)
	}
	// A full container is one run {0, 65535}.
	f := New()
	f.AddRange(0, containerSize-1)
	f.Optimize()
	if a, ru, s := f.ContainerCounts(); ru != 1 || a != 0 || s != 0 {
		t.Errorf("full-container counts = %d/%d/%d, want 0/1/0", a, ru, s)
	}
	if f.Cardinality() != containerSize {
		t.Errorf("full-container cardinality = %d", f.Cardinality())
	}
}

func TestRunContainerPointOps(t *testing.T) {
	b := New()
	b.AddRange(100, 70000) // spans two containers, stays run-encoded
	if a, ru, s := b.ContainerCounts(); ru != 2 || a != 0 || s != 0 {
		t.Fatalf("counts = %d/%d/%d, want 0/2/0", a, ru, s)
	}
	if b.Contains(99) || !b.Contains(100) || !b.Contains(70000) || b.Contains(70001) {
		t.Fatal("run membership boundaries wrong")
	}
	if b.Add(5000) {
		t.Error("Add of present value reported true (and thawed needlessly)")
	}
	if a, ru, _ := b.ContainerCounts(); ru != 2 || a != 0 {
		t.Error("redundant Add thawed a run container")
	}
	if !b.Add(80) || !b.Contains(80) {
		t.Error("Add of new value failed")
	}
	if !b.Remove(100) || b.Contains(100) {
		t.Error("Remove failed")
	}
	if mn, _ := b.Min(); mn != 80 {
		t.Errorf("Min = %d, want 80", mn)
	}
	if mx, _ := b.Max(); mx != 70000 {
		t.Errorf("Max = %d, want 70000", mx)
	}
}

func TestRunAwareKernelsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		av, bv := shapeValues(rng), shapeValues(rng)
		pa, pb := fromValues(av), fromValues(bv)
		// All four representation combinations must agree with the
		// plain-plain baseline, value for value.
		combos := [][2]*Bitmap{
			{pa.Clone().Optimize(), pb},
			{pa, pb.Clone().Optimize()},
			{pa.Clone().Optimize(), pb.Clone().Optimize()},
		}
		wantAnd, wantOr, wantNot := And(pa, pb), Or(pa, pb), AndNot(pa, pb)
		wantAndN, wantOrN := AndCardinality(pa, pb), OrCardinality(pa, pb)
		for ci, cb := range combos {
			a, b := cb[0], cb[1]
			if !And(a, b).Equal(wantAnd) {
				t.Fatalf("iter %d combo %d: And diverges", iter, ci)
			}
			if !Or(a, b).Equal(wantOr) {
				t.Fatalf("iter %d combo %d: Or diverges", iter, ci)
			}
			if !AndNot(a, b).Equal(wantNot) {
				t.Fatalf("iter %d combo %d: AndNot diverges", iter, ci)
			}
			if n := AndCardinality(a, b); n != wantAndN {
				t.Fatalf("iter %d combo %d: AndCardinality = %d, want %d", iter, ci, n, wantAndN)
			}
			if n := OrCardinality(a, b); n != wantOrN {
				t.Fatalf("iter %d combo %d: OrCardinality = %d, want %d", iter, ci, n, wantOrN)
			}
			if Intersects(a, b) != (wantAndN > 0) {
				t.Fatalf("iter %d combo %d: Intersects diverges", iter, ci)
			}
			// In-place forms, receivers cloned so combos stay intact.
			if !a.Clone().Union(b).Equal(wantOr) {
				t.Fatalf("iter %d combo %d: Union diverges", iter, ci)
			}
			if !a.Clone().Intersect(b).Equal(wantAnd) {
				t.Fatalf("iter %d combo %d: Intersect diverges", iter, ci)
			}
			if !a.Clone().Difference(b).Equal(wantNot) {
				t.Fatalf("iter %d combo %d: Difference diverges", iter, ci)
			}
			if !OrMany(a, b).Equal(wantOr) {
				t.Fatalf("iter %d combo %d: OrMany diverges", iter, ci)
			}
		}
	}
}

func TestAddRangeOntoRunContainer(t *testing.T) {
	// Random interval insertions must coalesce exactly like the model.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		fast, slow := New(), New()
		for n := 0; n < 12; n++ {
			lo := uint64(rng.Intn(containerSize))
			hi := lo + uint64(rng.Intn(5000))
			if hi > containerSize-1 {
				hi = containerSize - 1
			}
			fast.AddRange(lo, hi)
			for v := lo; v <= hi; v++ {
				slow.Add(v)
			}
			if !fast.Equal(slow) || fast.Cardinality() != slow.Cardinality() {
				t.Fatalf("iter %d: run coalescing diverged after [%d,%d]", iter, lo, hi)
			}
		}
	}
	// Adjacency boundaries merge into a single run.
	b := New()
	b.AddRange(10, 19)
	b.AddRange(30, 39)
	b.AddRange(20, 29) // bridges both neighbors
	if a, ru, s := b.ContainerCounts(); ru != 1 || a != 0 || s != 0 {
		t.Fatalf("counts = %d/%d/%d, want one run container", a, ru, s)
	}
	if got := b.containers[0].runs; len(got) != 1 || got[0] != (run{10, 29}) {
		t.Fatalf("runs = %v, want [{10 29}]", got)
	}
}

func TestSerializationV2RoundTrip(t *testing.T) {
	b := New()
	b.AddRange(0, 100_000)
	b.Add(1 << 40)
	b.Optimize()

	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got := New()
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Fatal("v2 round trip changed contents")
	}
	var again bytes.Buffer
	if _, err := got.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("v2 image is not byte-stable across a round trip")
	}
	// WriteTo writes v2 even without run containers, and a v1 image —
	// the same layout without runs, under the TBM1 magic — still loads.
	var v1 bytes.Buffer
	if _, err := b.Clone().Thaw().WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	v1img := append([]byte(nil), v1.Bytes()...)
	if !bytes.Equal(v1img[:4], first[:4]) {
		t.Fatal("thawed bitmap does not write the v2 magic")
	}
	binary.LittleEndian.PutUint32(v1img[:4], ioMagic)
	legacy := New()
	if _, err := legacy.ReadFrom(bytes.NewReader(v1img)); err != nil {
		t.Fatal(err)
	}
	if !legacy.Equal(b) {
		t.Fatal("v1 image failed to load")
	}
	if len(first) >= len(v1img) {
		t.Fatalf("v2 image (%d bytes) not smaller than v1 (%d bytes)", len(first), len(v1img))
	}
}

func TestMemBytesAndContainerCounts(t *testing.T) {
	b := New()
	b.AddRange(0, 1_000_000)
	before := b.Clone().Thaw().MemBytes()
	after := b.Clone().Optimize().MemBytes()
	if after >= before/10 {
		t.Errorf("Optimize shrank a 1M-value range only %d -> %d bytes", before, after)
	}
	if b.MemBytes() <= 0 {
		t.Error("MemBytes must be positive for a non-empty bitmap")
	}
	a, ru, s := b.Clone().Optimize().ContainerCounts()
	if ru == 0 || a+ru+s != len(b.containers) {
		t.Errorf("counts %d/%d/%d inconsistent with %d containers", a, ru, s, len(b.containers))
	}
}

// TestAddSortedSetZeroAllocs pins the single-pass word-OR merge: a
// sorted batch landing in an existing bitset container allocates
// nothing.
func TestAddSortedSetZeroAllocs(t *testing.T) {
	b := New()
	b.AddRange(0, arrayToBitmapThreshold+1000)
	b.containers[0].thaw() // force the bitset representation
	if b.containers[0].set == nil {
		t.Fatal("setup: container is not a bitset")
	}
	vals := make([]uint64, 512)
	for i := range vals {
		vals[i] = uint64(i * 3)
	}
	if n := testing.AllocsPerRun(100, func() { b.AddSorted(vals) }); n > 0 {
		t.Errorf("AddSorted into a bitset container allocates %.1f times per call, want 0", n)
	}
}

// FuzzContainerOps drives a random operation sequence against three
// states: a plain bitmap, a bitmap re-Optimized after every step, and
// a map model. All three must agree on cardinality, iteration order,
// and membership, and the serialized image must be byte-stable.
func FuzzContainerOps(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte{0x40, 0x00, 0x10, 0xff, 0x80, 0x00, 0x20, 0x01, 0x33})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, opt := New(), New()
		model := map[uint64]bool{}
		for i := 0; i+3 <= len(data); i += 3 {
			op := data[i] >> 6
			v := uint64(data[i]&0x3f)<<16 | uint64(data[i+1])<<8 | uint64(data[i+2])
			switch op {
			case 0: // Add
				plain.Add(v)
				opt.Add(v)
				model[v] = true
			case 1: // Remove
				plain.Remove(v)
				opt.Remove(v)
				delete(model, v)
			case 2: // AddRange
				hi := v + uint64(data[i+1])*7
				plain.AddRange(v, hi)
				opt.AddRange(v, hi)
				for x := v; x <= hi; x++ {
					model[x] = true
				}
			default: // AddSorted of a small strided batch
				batch := make([]uint64, 0, 8)
				for k := uint64(0); k < 8; k++ {
					batch = append(batch, v+k*uint64(data[i+2]%5))
				}
				sort.Slice(batch, func(a, b int) bool { return batch[a] < batch[b] })
				plain.AddSorted(batch)
				opt.AddSorted(batch)
				for _, x := range batch {
					model[x] = true
				}
			}
			opt.Optimize()
		}
		if plain.Cardinality() != len(model) || opt.Cardinality() != len(model) {
			t.Fatalf("cardinality: plain %d opt %d model %d", plain.Cardinality(), opt.Cardinality(), len(model))
		}
		ps, os := plain.Slice(), opt.Slice()
		if len(ps) != len(os) {
			t.Fatalf("iteration lengths diverge: %d vs %d", len(ps), len(os))
		}
		for i := range ps {
			if ps[i] != os[i] {
				t.Fatalf("iteration order diverges at %d: %d vs %d", i, ps[i], os[i])
			}
			if !opt.Contains(ps[i]) || !model[ps[i]] {
				t.Fatalf("membership of %d diverges", ps[i])
			}
		}
		var w1 bytes.Buffer
		if _, err := opt.WriteTo(&w1); err != nil {
			t.Fatal(err)
		}
		rt := New()
		if _, err := rt.ReadFrom(bytes.NewReader(w1.Bytes())); err != nil {
			t.Fatal(err)
		}
		var w2 bytes.Buffer
		if _, err := rt.WriteTo(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("serialized image is not byte-stable across a round trip")
		}
		if !rt.Equal(plain) {
			t.Fatal("round trip changed contents")
		}
	})
}

// BenchmarkAddSortedSet measures the steady-state sorted-batch merge
// into an existing bitset container; the interesting number is
// allocs/op, pinned at zero.
func BenchmarkAddSortedSet(b *testing.B) {
	bm := New()
	bm.AddRange(0, arrayToBitmapThreshold+1000)
	bm.containers[0].thaw()
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = uint64(i * 13 % containerSize)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.AddSorted(vals)
	}
}

func BenchmarkAndRunVsArray(b *testing.B) {
	runs := New()
	runs.AddRange(0, 60000)
	runs.Optimize()
	arr := New()
	for v := uint64(0); v < containerSize; v += 17 {
		arr.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if And(runs, arr).IsEmpty() {
			b.Fatal("empty intersection")
		}
	}
}

func BenchmarkAndCardinalityRunRun(b *testing.B) {
	x, y := New(), New()
	for v := uint64(0); v < containerSize; v += 128 {
		x.AddRange(v, v+63)
		y.AddRange(v+32, v+95)
	}
	x.Optimize()
	y.Optimize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if AndCardinality(x, y) == 0 {
			b.Fatal("empty")
		}
	}
}

// TestForEachFromMatchesSlice: a walk from any rank visits exactly the
// values of Slice from that index on, over arrays, runs and bitsets,
// plain and optimized, and stops when fn does.
func TestForEachFromMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		b := fromValues(shapeValues(rng))
		if iter%2 == 1 {
			b.Optimize()
		}
		all := b.Slice()
		ranks := []int{0, len(all) / 2, len(all) - 1, len(all), len(all) + 5}
		for k := 0; k < 8; k++ {
			ranks = append(ranks, rng.Intn(len(all)+1))
		}
		for _, rank := range ranks {
			limit := 1 + rng.Intn(3000)
			var got []uint64
			b.ForEachFrom(rank, func(v uint64) bool {
				got = append(got, v)
				return len(got) < limit
			})
			var want []uint64
			if rank < len(all) {
				want = all[rank:min(len(all), rank+limit)]
			}
			if len(got) != len(want) {
				t.Fatalf("iter %d rank %d limit %d: %d values, want %d", iter, rank, limit, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("iter %d rank %d: value %d is %d, want %d", iter, rank, i, got[i], want[i])
				}
			}
		}
	}
}
