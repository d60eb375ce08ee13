package cypher

import (
	"sort"

	"twigraph/internal/graph"
	"twigraph/internal/par"
	"twigraph/internal/spmat"
)

// Algebraic execution of eligible var-length expansions. A depth-2
// expansion that binds only its end node is exactly one row of a
// masked SpGEMM — the DFS enumerates every (e1, e2) path individually,
// while the gather computes the same per-end-node path counts from the
// weighted first-hop frontier in two row sweeps. The engine's profile
// and the density gate decide per input row; the DFS stays the
// semantic reference and the fallback.

// matrixMode is what the engine's profile resolves to for eligible
// var-length expansions.
type matrixMode uint8

const (
	// matrixOff always runs the DFS (Faithful).
	matrixOff matrixMode = iota
	// matrixGated lets the density gate decide per input row (Tuned).
	matrixGated
	// matrixForced runs every eligible row algebraically. Only tests
	// set it, so small graphs still cover the gather.
	matrixForced
)

// matrixEligible reports whether this expansion step can run
// algebraically: a fixed depth-2 bound, directed, end-node-only
// binding. Expansions that bind relationship variables need edge
// identities the gather does not track, and unbounded depths (>= 3)
// admit edge-revisiting walks whose per-path relationship uniqueness
// has no algebraic counterpart.
func (s *stepExpand) matrixEligible(ec *execCtx) bool {
	return ec.matrix != matrixOff &&
		s.maxHops == 2 && (s.minHops == 1 || s.minHops == 2) &&
		s.relSlot < 0 && !s.toBound &&
		(s.dir == graph.Outgoing || s.dir == graph.Incoming)
}

// expandMatrix expands one input row algebraically, appending result
// rows to out. handled=false sends the row to the DFS instead: the
// gate chose navigational execution for a sparse frontier, or the
// anchor has a self-loop (a loop edge could be reused at both hops,
// which Cypher's per-path relationship uniqueness forbids — only the
// DFS tracks edge identity).
func (s *stepExpand) expandMatrix(ec *execCtx, r row, from graph.NodeID, t graph.TypeID, out []row) ([]row, bool, error) {
	// The kernels read through readers of their own; drop this one's
	// pins so a small page cache can serve both.
	ec.rd.Close()
	src := ec.db.RelSource(t, s.dir)
	g := spmat.NewGate(int(ec.db.NodeCount()), int(ec.db.NodeCount()), int(ec.db.RelCount()))
	// The gate first checks the anchor's O(1) degree bound so sparse
	// input rows go straight to the DFS without a frontier build.
	if ec.matrix == matrixGated && !g.UseMatrix(spmat.EstimateFrontier(src, uint64(from))) {
		ec.spm.CountHop(false)
		return out, false, nil
	}
	frontier, err := spmat.WeightedFrontier(src, uint64(from), 0, &ec.accPool)
	if err != nil {
		return out, true, err
	}
	for _, f := range frontier {
		if f.ID == uint64(from) {
			return out, false, nil
		}
	}
	if ec.matrix == matrixGated && !g.UseMatrix(len(frontier)) {
		ec.spm.CountHop(false)
		return out, false, nil
	}
	ec.spm.CountHop(true)
	if ec.profileOps {
		ec.ops[ec.curStep].name = "VarLengthExpand(matrix)"
	}
	if err := ec.ctxErr(); err != nil {
		return out, true, err
	}
	// One output row per path: the placed conjuncts see only the end
	// node, so they are tested once per end node.
	emit := func(end uint64, paths int64) error {
		n := len(out)
		var err error
		if out, err = s.emit(ec, r, s.toSlot, NodeRef(end), out); err != nil || len(out) == n {
			return err
		}
		for i := int64(1); i < paths; i++ {
			out = append(out, cloneRow(out[n]))
		}
		return nil
	}
	if s.minHops == 1 {
		for _, f := range frontier {
			if err := emit(f.ID, f.W); err != nil {
				return out, true, err
			}
		}
	}
	// The executor is single-goroutine; the gather runs inline (the
	// stores' dispatch layer is where worker sharding lives).
	acc, err := spmat.Gather(src, frontier, 0, 1, par.Metrics{}, &ec.accPool)
	if err != nil {
		return out, true, err
	}
	ends := make([]spmat.WeightedID, 0, acc.Len())
	acc.ForEach(func(col uint64, c int64) {
		ends = append(ends, spmat.WeightedID{ID: col, W: c})
	})
	ec.accPool.Put(acc)
	sort.Slice(ends, func(i, j int) bool { return ends[i].ID < ends[j].ID })
	for _, e := range ends {
		if err := emit(e.ID, e.W); err != nil {
			return out, true, err
		}
	}
	return out, true, nil
}
