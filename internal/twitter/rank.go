package twitter

import (
	"cmp"
	"slices"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
)

// byCountThenID and byCountThenTag are the ranking every top-n answer
// of both engines keeps the first n of: count descending, then key
// (uid, tid or tag text) ascending.
func byCountThenID(a, b Counted) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.ID, b.ID))
}

func byCountThenTag(a, b CountedTag) int {
	return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Tag, b.Tag))
}

// firstN returns the first n of cs in the order by ranks them, sorted,
// reordering cs and reusing its array. It keeps the n best seen so far
// as a heap with the worst at its root, so it costs O(len(cs) log n)
// where sorting everything costs O(len(cs) log len(cs)). Entries by
// ranks equal are equal, so the result is the sort-then-trim's.
func firstN[T any](cs []T, n int, by func(a, b T) int) []T {
	if n <= 0 {
		return cs[:0]
	}
	if n < len(cs) {
		h := cs[:n]
		for i := n/2 - 1; i >= 0; i-- {
			siftDown(h, i, by)
		}
		for _, c := range cs[n:] {
			if by(c, h[0]) < 0 {
				h[0] = c
				siftDown(h, 0, by)
			}
		}
		cs = h
	}
	slices.SortFunc(cs, by)
	return cs
}

// siftDown restores the heap below i, the worst entry rising to i.
func siftDown[T any](h []T, i int, by func(a, b T) int) {
	for {
		w := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && by(h[c], h[w]) > 0 {
				w = c
			}
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// nodeCount is a candidate node of a neo top-n and its count.
type nodeCount struct {
	id    graph.NodeID
	count int64
}

// countsOf lists a counting map's nodes.
func countsOf(counts map[graph.NodeID]int64) []nodeCount {
	cs := make([]nodeCount, 0, len(counts))
	for id, c := range counts {
		cs = append(cs, nodeCount{id, c})
	}
	return cs
}

// rankNodes ranks the candidate nodes by count, then by the value of
// their key property (mk builds an entry from both), and returns the
// first n. The keys are read in node id order with one property run
// through rd, the query's Reader: the same records NodeProp would read
// per candidate, without a Reader opened and closed for each.
func rankNodes[T any](rd *neodb.Reader, cs []nodeCount, key graph.AttrID, n int, mk func(graph.Value, int64) T, by func(a, b T) int) ([]T, error) {
	slices.SortFunc(cs, func(a, b nodeCount) int { return cmp.Compare(a.id, b.id) })
	ids := make([]graph.NodeID, len(cs))
	for i, c := range cs {
		ids[i] = c.id
	}
	vals := make([]graph.Value, len(cs))
	if err := rd.NodePropRun(ids, key, vals); err != nil {
		return nil, err
	}
	out := make([]T, len(cs))
	for i, v := range vals {
		out[i] = mk(v, cs[i].count)
	}
	return firstN(out, n, by), nil
}

func countedUID(v graph.Value, c int64) Counted    { return Counted{ID: v.Int(), Count: c} }
func countedTag(v graph.Value, c int64) CountedTag { return CountedTag{Tag: v.Str(), Count: c} }
