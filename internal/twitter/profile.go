package twitter

import (
	"twigraph/internal/par"
	"twigraph/internal/spmat"
)

// execMode is what a store's spmat.Profile resolves to for the
// multi-hop queries (Q3.1–Q6.1).
type execMode struct {
	// gate lets the density gate send dense hops to the spmat kernels
	// (Tuned); false keeps every hop navigational or declarative
	// (Faithful).
	gate bool
	// forceMatrix runs every gated hop algebraically. Only tests set it
	// (export_test.go), so small graphs cover both paths.
	forceMatrix bool
	// workers shards each query's frontier (1 = sequential), giving
	// every shard at least minPerShard items.
	workers     int
	minPerShard int
}

func profileMode(p spmat.Profile) execMode {
	if p == spmat.Faithful {
		return execMode{workers: 1, minPerShard: minItemsPerShard}
	}
	return execMode{gate: true, workers: par.Workers(0), minPerShard: minItemsPerShard}
}

// shards sizes the fan-out over n frontier items.
func (m execMode) shards(n int) int {
	return par.WorkersForSize(m.workers, n, m.minPerShard)
}

// useMatrix reports whether a gated hop expanding frontierCard rows
// runs algebraically.
func (m execMode) useMatrix(g spmat.Gate, frontierCard int) bool {
	return m.forceMatrix || g.UseMatrix(frontierCard)
}
