package twitter

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sortThenTrim is the ranking firstN replaces: sort everything, keep n.
func sortThenTrim[T any](cs []T, n int, by func(a, b T) int) []T {
	cs = slices.Clone(cs)
	slices.SortFunc(cs, by)
	return cs[:max(0, min(n, len(cs)))]
}

// TestFirstNMatchesSortThenTrim: on random inputs with heavy count
// ties and duplicate keys, firstN returns what sorting everything and
// trimming to n returns, for n at and around the edges.
func TestFirstNMatchesSortThenTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		size := rng.Intn(40)
		counts, keys := 1+rng.Intn(4), 1+rng.Intn(2*size+1) // few distinct counts; keys repeat
		ids := make([]Counted, size)
		tags := make([]CountedTag, size)
		for i := range ids {
			c, k := int64(rng.Intn(counts)), rng.Intn(keys)
			ids[i] = Counted{ID: int64(k), Count: c}
			tags[i] = CountedTag{Tag: fmt.Sprintf("t%d", k), Count: c}
		}
		for _, n := range []int{0, 1, size - 1, size, size + 5} {
			if want, got := sortThenTrim(ids, n, byCountThenID), firstN(slices.Clone(ids), n, byCountThenID); !reflect.DeepEqual(got, want) {
				t.Fatalf("Counted %v, n = %d: firstN %v, sort-then-trim %v", ids, n, got, want)
			}
			if want, got := sortThenTrim(tags, n, byCountThenTag), firstN(slices.Clone(tags), n, byCountThenTag); !reflect.DeepEqual(got, want) {
				t.Fatalf("CountedTag %v, n = %d: firstN %v, sort-then-trim %v", tags, n, got, want)
			}
		}
	}
}
