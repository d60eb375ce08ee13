package bitmap

import (
	"math/bits"
	"sort"
)

// Bulk construction kernels for the import pipeline. The loaders insert
// long ascending runs — consecutive OIDs of a freshly created node or
// edge batch, and per-value posting runs — so building whole containers
// at once (and unioning word-at-a-time into existing ones) replaces
// millions of per-object Add calls, each of which pays a container
// binary search and possibly an insertion memmove.

// AddRange inserts every value in the closed interval [lo, hi],
// constructing dense containers directly instead of adding one value at
// a time.
func (b *Bitmap) AddRange(lo, hi uint64) {
	if hi < lo {
		return
	}
	firstKey := lo >> containerBits
	lastKey := hi >> containerBits
	for key := firstKey; ; key++ {
		from, to := uint16(0), uint16(containerSize-1)
		if key == firstKey {
			from = uint16(lo & (containerSize - 1))
		}
		if key == lastKey {
			to = uint16(hi & (containerSize - 1))
		}
		b.addContainerRange(key, from, to)
		if key == lastKey {
			return
		}
	}
}

// addContainerRange merges the contiguous run [from, to] into the
// container with the given key, creating it if absent. New containers
// and containers already in run form stay run-encoded — the interval
// is one 4-byte run, not up to 4096 array inserts or an 8 KiB bitset —
// which is what keeps bulk-loaded extent bitmaps O(extents) in memory.
func (b *Bitmap) addContainerRange(key uint64, from, to uint16) {
	n := int(to) - int(from) + 1
	i, ok := b.findContainer(key)
	if !ok {
		c := &container{key: key, runs: []run{{from, to - from}}, card: n}
		b.insertContainer(i, c)
		return
	}
	c := b.containers[i]
	if c.runs != nil {
		c.card += c.insertRun(from, to)
		return
	}
	if c.array != nil && len(c.array)+n > arrayToBitmapThreshold {
		c.toSet()
	}
	if c.set != nil {
		c.card += orWordRange(c.set, from, to)
		return
	}
	// Merge the run into the sorted array: everything already inside
	// [from, to] is subsumed by the run.
	loI := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= from })
	hiI := sort.Search(len(c.array), func(i int) bool { return c.array[i] > to })
	out := make([]uint16, 0, loI+n+len(c.array)-hiI)
	out = append(out, c.array[:loI]...)
	for v := from; ; v++ {
		out = append(out, v)
		if v == to {
			break
		}
	}
	out = append(out, c.array[hiI:]...)
	c.array = out
}

// orWordRange sets bits [from, to] in a bitset container word-at-a-time
// and returns how many were newly set.
func orWordRange(set []uint64, from, to uint16) (added int) {
	fw, lw := int(from>>6), int(to>>6)
	for w := fw; w <= lw; w++ {
		mask := ^uint64(0)
		if w == fw {
			mask &= ^uint64(0) << (from & 63)
		}
		if w == lw {
			mask &= ^uint64(0) >> (63 - to&63)
		}
		nw := set[w] | mask
		added += bits.OnesCount64(nw ^ set[w])
		set[w] = nw
	}
	return added
}

// AddSorted unions a non-decreasing run of values into the set,
// processing one container's worth at a time. Panics are avoided for
// unsorted input only by producing a wrong set; callers own the
// ordering invariant (the loaders emit batches in OID order).
func (b *Bitmap) AddSorted(vals []uint64) {
	for start := 0; start < len(vals); {
		key := vals[start] >> containerBits
		end := start + 1
		for end < len(vals) && vals[end]>>containerBits == key {
			end++
		}
		b.addContainerSorted(key, vals[start:end])
		start = end
	}
}

// FromWords returns the set of base+64w+j for every bit j set in
// words[w]: a dense bitset over a value range, read straight into
// containers. base must lie on a container boundary (a multiple of
// 2^16). Each container is an array up to arrayToBitmapThreshold
// members and a bitset above, as a loop of Add leaves it.
func FromWords(base uint64, words []uint64) *Bitmap {
	if base&(containerSize-1) != 0 {
		panic("bitmap: FromWords base not on a container boundary")
	}
	b := New()
	for k := 0; k*wordsPerSet < len(words); k++ {
		chunk := words[k*wordsPerSet : min((k+1)*wordsPerSet, len(words))]
		card := 0
		for _, w := range chunk {
			card += bits.OnesCount64(w)
		}
		if card == 0 {
			continue
		}
		c := &container{key: base>>containerBits + uint64(k)}
		if card > arrayToBitmapThreshold {
			c.set = make([]uint64, wordsPerSet)
			copy(c.set, chunk)
			c.card = card
		} else {
			c.array = make([]uint16, 0, card)
			for w, word := range chunk {
				for ; word != 0; word &= word - 1 {
					c.array = append(c.array, uint16(w<<6|bits.TrailingZeros64(word)))
				}
			}
		}
		b.containers = append(b.containers, c)
	}
	return b
}

// addContainerSorted merges a non-decreasing run of same-key values.
// When the target container is already a bitset the values word-OR
// straight in — a single pass with no intermediate allocation, the
// steady state of a large bulk load (pinned by BenchmarkAddSortedSet).
func (b *Bitmap) addContainerSorted(key uint64, vals []uint64) {
	i, ok := b.findContainer(key)
	if ok {
		c := b.containers[i]
		if c.runs != nil {
			c.thaw()
		}
		if c.set != nil {
			for _, v := range vals {
				low := uint16(v & (containerSize - 1))
				w, m := low>>6, uint64(1)<<(low&63)
				if c.set[w]&m == 0 {
					c.set[w] |= m
					c.card++
				}
			}
			return
		}
	}
	// Array and fresh-container paths need the deduplicated low halves.
	lows := make([]uint16, 0, len(vals))
	for _, v := range vals {
		low := uint16(v & (containerSize - 1))
		if n := len(lows); n == 0 || lows[n-1] != low {
			lows = append(lows, low)
		}
	}
	if !ok {
		c := &container{key: key}
		if len(lows) > arrayToBitmapThreshold {
			c.set = make([]uint64, wordsPerSet)
			for _, low := range lows {
				c.set[low>>6] |= 1 << (low & 63)
			}
			c.card = len(lows)
		} else {
			c.array = lows
		}
		b.insertContainer(i, c)
		return
	}
	c := b.containers[i]
	if len(c.array)+len(lows) > arrayToBitmapThreshold {
		c.toSet()
		for _, low := range lows {
			w, m := low>>6, uint64(1)<<(low&63)
			if c.set[w]&m == 0 {
				c.set[w] |= m
				c.card++
			}
		}
		return
	}
	c.array = mergeSortedU16(c.array, lows)
}

// mergeSortedU16 merges two sorted, deduplicated slices into one.
func mergeSortedU16(a, b []uint16) []uint16 {
	out := make([]uint16, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// insertContainer places c at index i, keeping the key order.
func (b *Bitmap) insertContainer(i int, c *container) {
	b.containers = append(b.containers, nil)
	copy(b.containers[i+1:], b.containers[i:])
	b.containers[i] = c
}
