// Package bitmap implements a compressed bitmap over uint64 keys, the
// storage substrate of the Sparksee-analog engine. Sparksee "stores
// graphs using a compressed bitmap-based data structure"
// (Martínez-Bazan et al., IDEAS 2012); this package provides the
// equivalent: a two-level structure that chunks the key space into
// 2^16-wide containers, each stored as a sorted array of 16-bit
// offsets (sparse), a 1024-word bitset (dense), or a sorted run list
// (contiguous — see runs.go and Optimize).
//
// All set-algebra operations (And, Or, AndNot) operate container-wise,
// so intersecting a small neighbourhood with a huge type bitmap touches
// only the containers the small side owns — the property that makes
// bitmap graph stores competitive for adjacency queries.
package bitmap

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// arrayToBitmapThreshold is the container cardinality above which a
// sorted array container is converted to a fixed bitset container.
// 4096 16-bit entries occupy the same 8 KiB as a full bitset, so this is
// the break-even point used by roaring bitmaps as well.
const arrayToBitmapThreshold = 4096

const (
	containerBits = 16
	containerSize = 1 << containerBits // values per container
	wordsPerSet   = containerSize / 64 // words in a bitset container
)

// container holds one 2^16-wide chunk. Exactly one of array/set/runs
// is non-nil.
type container struct {
	key   uint64   // high bits (value >> 16)
	array []uint16 // sorted, unique; nil otherwise
	set   []uint64 // wordsPerSet words; nil otherwise
	runs  []run    // sorted, disjoint, non-adjacent; nil otherwise
	card  int      // cardinality when set or runs != nil (arrays use len)
}

// Bitmap is a compressed set of uint64 values. The zero value is an
// empty set ready for use. Bitmap is not safe for concurrent mutation;
// concurrent readers are safe once no writer is active.
type Bitmap struct {
	containers []*container // sorted by key
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// Of returns a bitmap containing the given values.
func Of(values ...uint64) *Bitmap {
	b := New()
	for _, v := range values {
		b.Add(v)
	}
	return b
}

// findContainer returns the index of the container with the given key,
// or the insertion point and false.
func (b *Bitmap) findContainer(key uint64) (int, bool) {
	i := sort.Search(len(b.containers), func(i int) bool {
		return b.containers[i].key >= key
	})
	if i < len(b.containers) && b.containers[i].key == key {
		return i, true
	}
	return i, false
}

// Add inserts v into the set. It reports whether v was newly added.
func (b *Bitmap) Add(v uint64) bool {
	key, low := v>>containerBits, uint16(v&(containerSize-1))
	i, ok := b.findContainer(key)
	if !ok {
		c := &container{key: key, array: []uint16{low}}
		b.containers = append(b.containers, nil)
		copy(b.containers[i+1:], b.containers[i:])
		b.containers[i] = c
		return true
	}
	return b.containers[i].add(low)
}

// Remove deletes v from the set. It reports whether v was present.
func (b *Bitmap) Remove(v uint64) bool {
	key, low := v>>containerBits, uint16(v&(containerSize-1))
	i, ok := b.findContainer(key)
	if !ok {
		return false
	}
	c := b.containers[i]
	removed := c.remove(low)
	if removed && c.cardinality() == 0 {
		b.containers = append(b.containers[:i], b.containers[i+1:]...)
	}
	return removed
}

// Contains reports whether v is in the set.
func (b *Bitmap) Contains(v uint64) bool {
	key, low := v>>containerBits, uint16(v&(containerSize-1))
	i, ok := b.findContainer(key)
	return ok && b.containers[i].contains(low)
}

// Cardinality returns the number of values in the set.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.cardinality()
	}
	return n
}

// IsEmpty reports whether the set has no values.
func (b *Bitmap) IsEmpty() bool { return len(b.containers) == 0 }

// Clear removes all values.
func (b *Bitmap) Clear() { b.containers = nil }

// Clone returns a deep copy of the set.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{containers: make([]*container, len(b.containers))}
	for i, c := range b.containers {
		out.containers[i] = c.clone()
	}
	return out
}

// Min returns the smallest value and true, or 0 and false when empty.
func (b *Bitmap) Min() (uint64, bool) {
	if len(b.containers) == 0 {
		return 0, false
	}
	c := b.containers[0]
	return c.key<<containerBits | uint64(c.min()), true
}

// Max returns the largest value and true, or 0 and false when empty.
func (b *Bitmap) Max() (uint64, bool) {
	if len(b.containers) == 0 {
		return 0, false
	}
	c := b.containers[len(b.containers)-1]
	return c.key<<containerBits | uint64(c.max()), true
}

// ForEach calls fn for every value in ascending order until fn returns
// false.
func (b *Bitmap) ForEach(fn func(uint64) bool) { b.ForEachFrom(0, fn) }

// ForEachFrom calls fn for every value from the rank-th smallest on
// (rank 0 is the minimum), in ascending order, until fn returns false.
// It skips whole containers by their cardinality and, inside the first
// one it visits, whole runs or bitset words, so parallel readers can
// each walk their own rank range without materialising the set.
func (b *Bitmap) ForEachFrom(rank int, fn func(uint64) bool) {
	i := 0
	for ; i < len(b.containers); i++ {
		n := b.containers[i].cardinality()
		if rank < n {
			break
		}
		rank -= n
	}
	for _, c := range b.containers[i:] {
		if !c.forEachFrom(rank, fn) {
			return
		}
		rank = 0
	}
}

// forEachFrom calls fn for the container's values from the skip-th on,
// in ascending order, and reports false once fn has.
func (c *container) forEachFrom(skip int, fn func(uint64) bool) bool {
	base := c.key << containerBits
	if c.array != nil {
		for _, low := range c.array[skip:] {
			if !fn(base | uint64(low)) {
				return false
			}
		}
		return true
	}
	if c.runs != nil {
		for _, r := range c.runs {
			if n := int(r.length) + 1; skip >= n {
				skip -= n
				continue
			}
			v := r.start + uint16(skip)
			skip = 0
			for {
				if !fn(base | uint64(v)) {
					return false
				}
				if v == r.last() {
					break
				}
				v++
			}
		}
		return true
	}
	for w, word := range c.set {
		if skip > 0 {
			if n := bits.OnesCount64(word); skip >= n {
				skip -= n
				continue
			}
			for ; skip > 0; skip-- {
				word &= word - 1 // drop the lowest set bit
			}
		}
		for word != 0 {
			t := bits.TrailingZeros64(word)
			if !fn(base | uint64(w*64+t)) {
				return false
			}
			word &^= 1 << t
		}
	}
	return true
}

// Slice returns all values in ascending order.
func (b *Bitmap) Slice() []uint64 {
	out := make([]uint64, 0, b.Cardinality())
	b.ForEach(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// String renders a small bitmap for debugging.
func (b *Bitmap) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	n := 0
	b.ForEach(func(v uint64) bool {
		if n > 0 {
			sb.WriteByte(' ')
		}
		if n >= 32 {
			sb.WriteString("...")
			return false
		}
		fmt.Fprintf(&sb, "%d", v)
		n++
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// Equal reports whether two bitmaps contain exactly the same values.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if len(b.containers) != len(o.containers) {
		return false
	}
	for i, c := range b.containers {
		if !c.equal(o.containers[i]) {
			return false
		}
	}
	return true
}

// ---------- container operations ----------

func (c *container) cardinality() int {
	if c.array != nil {
		return len(c.array)
	}
	return c.card
}

func (c *container) clone() *container {
	out := &container{key: c.key, card: c.card}
	if c.array != nil {
		out.array = append([]uint16(nil), c.array...)
	}
	if c.set != nil {
		out.set = append([]uint64(nil), c.set...)
	}
	if c.runs != nil {
		out.runs = append([]run(nil), c.runs...)
	}
	return out
}

func (c *container) contains(low uint16) bool {
	if c.set != nil {
		return c.set[low>>6]&(1<<(low&63)) != 0
	}
	if c.runs != nil {
		return runsContain(c.runs, low)
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	return i < len(c.array) && c.array[i] == low
}

func (c *container) add(low uint16) bool {
	if c.runs != nil {
		// Point writes thaw the frozen run representation, but a
		// membership hit costs only the binary search.
		if runsContain(c.runs, low) {
			return false
		}
		c.thaw()
	}
	if c.set != nil {
		w, m := low>>6, uint64(1)<<(low&63)
		if c.set[w]&m != 0 {
			return false
		}
		c.set[w] |= m
		c.card++
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	if i < len(c.array) && c.array[i] == low {
		return false
	}
	if len(c.array) >= arrayToBitmapThreshold {
		c.toSet()
		return c.add(low)
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = low
	return true
}

func (c *container) remove(low uint16) bool {
	if c.runs != nil {
		if !runsContain(c.runs, low) {
			return false
		}
		c.thaw()
	}
	if c.set != nil {
		w, m := low>>6, uint64(1)<<(low&63)
		if c.set[w]&m == 0 {
			return false
		}
		c.set[w] &^= m
		c.card--
		if c.card < arrayToBitmapThreshold/2 {
			c.toArray()
		}
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	if i >= len(c.array) || c.array[i] != low {
		return false
	}
	c.array = append(c.array[:i], c.array[i+1:]...)
	return true
}

func (c *container) toSet() {
	set := make([]uint64, wordsPerSet)
	for _, low := range c.array {
		set[low>>6] |= 1 << (low & 63)
	}
	c.card = len(c.array)
	c.set, c.array = set, nil
}

func (c *container) toArray() {
	arr := make([]uint16, 0, c.card)
	for w, word := range c.set {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			arr = append(arr, uint16(w*64+t))
			word &^= 1 << t
		}
	}
	c.array, c.set, c.card = arr, nil, 0
}

func (c *container) min() uint16 {
	if c.array != nil {
		return c.array[0]
	}
	if c.runs != nil {
		return c.runs[0].start
	}
	for w, word := range c.set {
		if word != 0 {
			return uint16(w*64 + bits.TrailingZeros64(word))
		}
	}
	return 0
}

func (c *container) max() uint16 {
	if c.array != nil {
		return c.array[len(c.array)-1]
	}
	if c.runs != nil {
		return c.runs[len(c.runs)-1].last()
	}
	for w := len(c.set) - 1; w >= 0; w-- {
		if c.set[w] != 0 {
			return uint16(w*64 + 63 - bits.LeadingZeros64(c.set[w]))
		}
	}
	return 0
}

func (c *container) equal(o *container) bool {
	if c.key != o.key || c.cardinality() != o.cardinality() {
		return false
	}
	// Normalise both to iteration and compare.
	av, bv := c.values(), o.values()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

func (c *container) values() []uint16 {
	if c.array != nil {
		return c.array
	}
	out := make([]uint16, 0, c.card)
	c.forEachLow(func(low uint16) { out = append(out, low) })
	return out
}
