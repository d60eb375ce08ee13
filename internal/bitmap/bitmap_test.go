package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	b := New()
	if !b.IsEmpty() {
		t.Fatal("new bitmap not empty")
	}
	if !b.Add(42) {
		t.Error("Add(42) = false on empty set")
	}
	if b.Add(42) {
		t.Error("Add(42) = true when already present")
	}
	if !b.Contains(42) || b.Contains(43) {
		t.Error("Contains wrong after Add")
	}
	if b.Cardinality() != 1 {
		t.Errorf("Cardinality = %d, want 1", b.Cardinality())
	}
	if !b.Remove(42) {
		t.Error("Remove(42) = false")
	}
	if b.Remove(42) {
		t.Error("Remove(42) = true when absent")
	}
	if !b.IsEmpty() {
		t.Error("not empty after removing only element")
	}
}

func TestCrossContainerValues(t *testing.T) {
	// Values spanning multiple 2^16 containers.
	vals := []uint64{0, 1, 65535, 65536, 65537, 1 << 20, 1<<32 + 7, 1 << 40}
	b := Of(vals...)
	if b.Cardinality() != len(vals) {
		t.Fatalf("Cardinality = %d, want %d", b.Cardinality(), len(vals))
	}
	got := b.Slice()
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("Slice[%d] = %d, want %d", i, got[i], v)
		}
	}
	if mn, ok := b.Min(); !ok || mn != 0 {
		t.Errorf("Min = %d,%v", mn, ok)
	}
	if mx, ok := b.Max(); !ok || mx != 1<<40 {
		t.Errorf("Max = %d,%v", mx, ok)
	}
}

func TestArrayToBitmapPromotion(t *testing.T) {
	b := New()
	// Force a container through the array→bitset threshold and back.
	for i := 0; i < arrayToBitmapThreshold+100; i++ {
		b.Add(uint64(i))
	}
	if b.containers[0].set == nil {
		t.Fatal("container not promoted to bitset above threshold")
	}
	if b.Cardinality() != arrayToBitmapThreshold+100 {
		t.Fatalf("cardinality %d", b.Cardinality())
	}
	for i := 0; i < arrayToBitmapThreshold+100; i++ {
		if !b.Contains(uint64(i)) {
			t.Fatalf("missing %d after promotion", i)
		}
	}
	// Remove most values; container should demote to array.
	for i := 100; i < arrayToBitmapThreshold+100; i++ {
		b.Remove(uint64(i))
	}
	if b.containers[0].array == nil {
		t.Fatal("container not demoted to array after removals")
	}
	if b.Cardinality() != 100 {
		t.Fatalf("cardinality after removals = %d", b.Cardinality())
	}
}

func TestMinMaxOnBitsetContainer(t *testing.T) {
	b := New()
	for i := 5000; i < 5000+arrayToBitmapThreshold+1; i++ {
		b.Add(uint64(i))
	}
	if mn, _ := b.Min(); mn != 5000 {
		t.Errorf("Min = %d", mn)
	}
	if mx, _ := b.Max(); mx != uint64(5000+arrayToBitmapThreshold) {
		t.Errorf("Max = %d", mx)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := Of(1, 2, 3, 4, 5)
	var seen []uint64
	b.ForEach(func(v uint64) bool {
		seen = append(seen, v)
		return v < 3
	})
	if len(seen) != 3 || seen[2] != 3 {
		t.Errorf("seen = %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2, 3)
	b := a.Clone()
	b.Add(4)
	a.Remove(1)
	if a.Contains(4) || !b.Contains(1) {
		t.Error("Clone aliases original")
	}
}

// model-based randomized test against map[uint64]bool
func TestRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := New()
	model := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Intn(100000))
		switch rng.Intn(3) {
		case 0:
			b.Add(v)
			model[v] = true
		case 1:
			b.Remove(v)
			delete(model, v)
		case 2:
			if b.Contains(v) != model[v] {
				t.Fatalf("Contains(%d) mismatch at step %d", v, i)
			}
		}
	}
	if b.Cardinality() != len(model) {
		t.Fatalf("cardinality %d, model %d", b.Cardinality(), len(model))
	}
	want := make([]uint64, 0, len(model))
	for v := range model {
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := b.Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func fromSlice(vals []uint32) *Bitmap {
	b := New()
	for _, v := range vals {
		b.Add(uint64(v))
	}
	return b
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}

	// |A ∩ B| + |A − B| = |A|
	partition := func(as, bs []uint32) bool {
		a, b := fromSlice(as), fromSlice(bs)
		return AndCardinality(a, b)+AndNot(a, b).Cardinality() == a.Cardinality()
	}
	if err := quick.Check(partition, cfg); err != nil {
		t.Error("partition law:", err)
	}

	// A ∪ B = B ∪ A and A ∩ B = B ∩ A
	commute := func(as, bs []uint32) bool {
		a, b := fromSlice(as), fromSlice(bs)
		return Or(a, b).Equal(Or(b, a)) && And(a, b).Equal(And(b, a))
	}
	if err := quick.Check(commute, cfg); err != nil {
		t.Error("commutativity:", err)
	}

	// (A − B) ∪ (A ∩ B) = A
	recompose := func(as, bs []uint32) bool {
		a, b := fromSlice(as), fromSlice(bs)
		return Or(AndNot(a, b), And(a, b)).Equal(a)
	}
	if err := quick.Check(recompose, cfg); err != nil {
		t.Error("recomposition:", err)
	}

	// A ∩ (B ∪ C) = (A ∩ B) ∪ (A ∩ C)
	distribute := func(as, bs, cs []uint32) bool {
		a, b, c := fromSlice(as), fromSlice(bs), fromSlice(cs)
		return And(a, Or(b, c)).Equal(Or(And(a, b), And(a, c)))
	}
	if err := quick.Check(distribute, cfg); err != nil {
		t.Error("distributivity:", err)
	}

	// Intersects ⇔ AndCardinality > 0
	intersects := func(as, bs []uint32) bool {
		a, b := fromSlice(as), fromSlice(bs)
		return Intersects(a, b) == (AndCardinality(a, b) > 0)
	}
	if err := quick.Check(intersects, cfg); err != nil {
		t.Error("intersects:", err)
	}
}

func TestMutatingSetOps(t *testing.T) {
	a := Of(1, 2, 3)
	a.Union(Of(3, 4))
	if a.Cardinality() != 4 || !a.Contains(4) {
		t.Errorf("Union: %v", a)
	}
	a.Intersect(Of(2, 3, 4, 5))
	if a.Cardinality() != 3 || a.Contains(1) {
		t.Errorf("Intersect: %v", a)
	}
	a.Difference(Of(4))
	if a.Cardinality() != 2 || a.Contains(4) {
		t.Errorf("Difference: %v", a)
	}
}

func TestLargeDenseOps(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 3*containerSize; i += 2 {
		a.Add(uint64(i))
	}
	for i := 0; i < 3*containerSize; i += 3 {
		b.Add(uint64(i))
	}
	and := And(a, b)
	want := 0
	for i := 0; i < 3*containerSize; i += 6 {
		want++
		if !and.Contains(uint64(i)) {
			t.Fatalf("And missing %d", i)
		}
	}
	if and.Cardinality() != want {
		t.Errorf("And cardinality = %d, want %d", and.Cardinality(), want)
	}
	or := Or(a, b)
	if got := or.Cardinality(); got != a.Cardinality()+b.Cardinality()-want {
		t.Errorf("Or cardinality = %d", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New()
	for i := 0; i < 10000; i++ {
		b.Add(uint64(rng.Intn(1 << 22)))
	}
	// Force a dense container too.
	for i := 0; i < arrayToBitmapThreshold+10; i++ {
		b.Add(uint64(1<<30 + i))
	}
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	var c Bitmap
	if _, err := c.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !b.Equal(&c) {
		t.Error("round-trip mismatch")
	}
}

func TestReadFromBadMagic(t *testing.T) {
	var c Bitmap
	if _, err := c.ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0})); err == nil {
		t.Error("expected error on bad magic")
	}
}

// TestReadFromRejectsBadCounts sets the counts an image carries to
// values no container can hold, with the payload bytes present: each
// must be an error. A container count far beyond the bytes present must
// fail at the end of the data rather than allocate for the count.
func TestReadFromRejectsBadCounts(t *testing.T) {
	image := func(containers uint32, mode byte, card uint32, payload int) []byte {
		b := make([]byte, 8+13+payload)
		binary.LittleEndian.PutUint32(b[0:4], ioMagicV2)
		binary.LittleEndian.PutUint32(b[4:8], containers)
		b[8+8] = mode
		binary.LittleEndian.PutUint32(b[8+9:], card)
		return b
	}
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"array cardinality", image(1, 0, containerSize+1, 2*(containerSize+1))},
		{"bitset cardinality", image(1, 1, containerSize+1, 8*wordsPerSet)},
		{"run count", image(1, 2, containerSize/2+1, 4*(containerSize/2+1))},
		{"container count", image(1<<31, 0, 0, 0)},
	} {
		var c Bitmap
		if _, err := c.ReadFrom(bytes.NewReader(tc.img)); err == nil {
			t.Errorf("%s: corrupt image loaded without error", tc.name)
		}
	}
}

func TestStringTruncates(t *testing.T) {
	b := New()
	for i := 0; i < 100; i++ {
		b.Add(uint64(i))
	}
	s := b.String()
	if len(s) == 0 || s[0] != '{' {
		t.Errorf("String() = %q", s)
	}
	if !bytes.Contains([]byte(s), []byte("...")) {
		t.Errorf("String() should truncate: %q", s)
	}
}

func TestEqual(t *testing.T) {
	if !Of(1, 2).Equal(Of(2, 1)) {
		t.Error("order should not matter")
	}
	if Of(1).Equal(Of(1, 2)) {
		t.Error("different cardinalities equal")
	}
	if Of(1).Equal(Of(2)) {
		t.Error("different values equal")
	}
	// Same values, one container dense and one sparse, must be equal.
	a, b := New(), New()
	for i := 0; i <= arrayToBitmapThreshold; i++ {
		a.Add(uint64(i))
		b.Add(uint64(i))
	}
	b.Add(99999999)
	b.Remove(99999999) // b's first container went through same path; force different layout:
	c := a.Clone()
	for i := arrayToBitmapThreshold; i > 0; i-- {
		c.Remove(uint64(i))
		c.Add(uint64(i))
	}
	if !a.Equal(c) {
		t.Error("layout difference broke Equal")
	}
}

func BenchmarkAdd(b *testing.B) {
	bm := New()
	for i := 0; i < b.N; i++ {
		bm.Add(uint64(i * 7 % (1 << 24)))
	}
}

func BenchmarkAndDense(b *testing.B) {
	x, y := New(), New()
	for i := 0; i < 1<<20; i += 2 {
		x.Add(uint64(i))
	}
	for i := 0; i < 1<<20; i += 3 {
		y.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		And(x, y)
	}
}
