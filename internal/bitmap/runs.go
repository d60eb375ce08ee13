package bitmap

import (
	"math/bits"
	"sort"
)

// Run-length containers, the third container kind (Chambi et al.,
// "Better bitmap performance with Roaring bitmaps"). A run container
// stores a sorted list of disjoint, non-adjacent intervals; the dense
// contiguous OID ranges that bulk loading produces — a freshly
// allocated node extent is one interval — collapse from thousands of
// array entries or a full 8 KiB bitset to four bytes per interval, and
// the set-algebra kernels walk intervals in O(runs) instead of
// O(cardinality).
//
// Representation choice is by serialized size (the same model io.go
// uses): 2·card bytes for an array, 4·runs bytes for a run list,
// 8 KiB for a bitset. Optimize applies the model to every container;
// Thaw undoes it (tests use the thawed form as their reference). Both
// are canonical —
// the chosen representation depends only on the set's contents, never
// on construction history — so byte-identical image comparisons across
// worker counts keep holding.

// run is one maximal interval of present values inside a container:
// [start, start+length]. length is the interval's cardinality minus
// one, so a full container (65536 values) is representable.
type run struct {
	start, length uint16
}

// last returns the inclusive upper bound of the run.
func (r run) last() uint16 { return r.start + r.length }

const (
	bytesPerArrayEntry = 2
	bytesPerRun        = 4
	bytesPerSetPayload = 8 * wordsPerSet
)

// Optimize converts every container to its smallest serialized
// representation (array ↔ run ↔ bitset) and returns b. The choice is a
// pure function of each container's contents: a run list wins only
// when strictly smaller than both alternatives, an array beats a
// bitset on ties. Callers invoke it after bulk builds and before
// Save-style serialization; point mutations on an optimized bitmap
// remain valid (run containers thaw on first write).
func (b *Bitmap) Optimize() *Bitmap {
	for _, c := range b.containers {
		c.optimize()
	}
	return b
}

// Thaw converts every run container back to the array/bitset
// representation (array when cardinality ≤ 4096, bitset otherwise):
// the representation every bitmap had before run compression.
func (b *Bitmap) Thaw() *Bitmap {
	for _, c := range b.containers {
		c.thaw()
	}
	return b
}

// ContainerCounts returns the number of containers held in each
// representation (arrays, run lists, bitsets).
func (b *Bitmap) ContainerCounts() (arrays, runs, bitsets int) {
	for _, c := range b.containers {
		switch {
		case c.array != nil:
			arrays++
		case c.runs != nil:
			runs++
		default:
			bitsets++
		}
	}
	return arrays, runs, bitsets
}

// containerStructBytes approximates the heap footprint of one
// container value: the struct itself (key + three slice headers +
// card, rounded up to the allocator's size class) plus the pointer to
// it in the container slice.
const containerStructBytes = 96 + 8

// MemBytes estimates the heap bytes held by the bitmap: container
// payloads at their capacities plus per-container struct overhead.
func (b *Bitmap) MemBytes() int {
	n := 24 + 8*cap(b.containers)
	for _, c := range b.containers {
		n += containerStructBytes
		n += bytesPerArrayEntry*cap(c.array) + 8*cap(c.set) + bytesPerRun*cap(c.runs)
	}
	return n
}

// ---------- per-container representation changes ----------

// optimize re-represents the container at its minimum serialized size.
func (c *container) optimize() {
	card := c.cardinality()
	if card == 0 {
		return // empty containers are dropped at the bitmap level
	}
	nr := c.numRuns()
	runBytes := bytesPerRun * nr
	arrBytes := bytesPerArrayEntry * card
	if runBytes < bytesPerSetPayload && (card > arrayToBitmapThreshold || runBytes < arrBytes) {
		c.toRuns(nr)
		return
	}
	c.thaw() // canonical array/bitset by cardinality
	if c.set != nil && card <= arrayToBitmapThreshold {
		c.toArray()
	}
}

// thaw converts a run container back to array (card ≤ 4096) or bitset.
// Non-run containers are untouched.
func (c *container) thaw() {
	if c.runs == nil {
		return
	}
	if c.card > arrayToBitmapThreshold {
		set := make([]uint64, wordsPerSet)
		for _, r := range c.runs {
			orWordRange(set, r.start, r.last())
		}
		c.set, c.runs = set, nil
		return
	}
	arr := make([]uint16, 0, c.card)
	for _, r := range c.runs {
		v := r.start
		for {
			arr = append(arr, v)
			if v == r.last() {
				break
			}
			v++
		}
	}
	c.array, c.runs, c.card = arr, nil, 0
}

// toRuns re-represents the container as a run list of nr runs.
func (c *container) toRuns(nr int) {
	if c.runs != nil {
		return
	}
	card := c.cardinality()
	rs := make([]run, 0, nr)
	prev := -2
	var start int
	c.forEachLow(func(low uint16) {
		v := int(low)
		if v == prev+1 {
			prev = v
			return
		}
		if prev >= 0 {
			rs = append(rs, run{uint16(start), uint16(prev - start)})
		}
		start, prev = v, v
	})
	if prev >= 0 {
		rs = append(rs, run{uint16(start), uint16(prev - start)})
	}
	c.runs, c.array, c.set, c.card = rs, nil, nil, card
}

// numRuns counts the maximal intervals of the container's contents
// without materializing them.
func (c *container) numRuns() int {
	switch {
	case c.runs != nil:
		return len(c.runs)
	case c.array != nil:
		if len(c.array) == 0 {
			return 0
		}
		n := 1
		for i := 1; i < len(c.array); i++ {
			if c.array[i] != c.array[i-1]+1 {
				n++
			}
		}
		return n
	default:
		// A run starts at every set bit whose predecessor is clear;
		// carry the previous word's top bit across the boundary.
		n := 0
		var carry uint64
		for _, w := range c.set {
			n += bits.OnesCount64(w &^ ((w << 1) | carry))
			carry = w >> 63
		}
		return n
	}
}

// forEachLow visits every present low half in ascending order.
func (c *container) forEachLow(fn func(uint16)) {
	switch {
	case c.array != nil:
		for _, low := range c.array {
			fn(low)
		}
	case c.runs != nil:
		for _, r := range c.runs {
			v := r.start
			for {
				fn(v)
				if v == r.last() {
					break
				}
				v++
			}
		}
	default:
		for w, word := range c.set {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				fn(uint16(w*64 + t))
				word &^= 1 << t
			}
		}
	}
}

// runsContain reports membership via binary search on the run list.
func runsContain(rs []run, low uint16) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].start > low })
	return i > 0 && low <= rs[i-1].last()
}

// insertRun merges the interval [from, to] into the container's run
// list, coalescing overlapping and adjacent runs, and returns how many
// values were newly added. c.card is not touched; callers add the
// return value.
func (c *container) insertRun(from, to uint16) int {
	rs := c.runs
	f, t := int(from), int(to)
	// First run that overlaps or is left-adjacent: its end+1 ≥ from.
	i := sort.Search(len(rs), func(k int) bool { return int(rs[k].last())+1 >= f })
	lo, hi, old := f, t, 0
	j := i
	for j < len(rs) && int(rs[j].start) <= t+1 {
		if s := int(rs[j].start); s < lo {
			lo = s
		}
		if e := int(rs[j].last()); e > hi {
			hi = e
		}
		old += int(rs[j].length) + 1
		j++
	}
	merged := run{uint16(lo), uint16(hi - lo)}
	switch {
	case j == i: // no overlap: insert at i
		rs = append(rs, run{})
		copy(rs[i+1:], rs[i:])
		rs[i] = merged
	default: // absorb runs [i, j)
		rs[i] = merged
		rs = append(rs[:i+1], rs[j:]...)
	}
	c.runs = rs
	return (hi - lo + 1) - old
}

// clearWordRange clears bits [from, to] in a bitset container
// word-at-a-time and returns how many were previously set.
func clearWordRange(set []uint64, from, to uint16) (removed int) {
	fw, lw := int(from>>6), int(to>>6)
	for w := fw; w <= lw; w++ {
		mask := ^uint64(0)
		if w == fw {
			mask &= ^uint64(0) << (from & 63)
		}
		if w == lw {
			mask &= ^uint64(0) >> (63 - to&63)
		}
		removed += bits.OnesCount64(set[w] & mask)
		set[w] &^= mask
	}
	return removed
}
