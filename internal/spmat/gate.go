package spmat

// DensityFraction is the plan-choice threshold: a hop whose frontier
// is expected to touch at least |V|/DensityFraction edges (frontier
// cardinality × mean out-degree) runs algebraically; sparser hops stay
// navigational, where per-edge pointer chasing over a handful of rows
// beats setting up dense accumulators. The value is deliberately low —
// the dense-accumulator gather amortises quickly — and is documented
// with the measured crossover in docs/PERFORMANCE.md.
const DensityFraction = 64

// LentDensityFraction is the calibrated threshold for hops whose
// gathered rows are lent as run-compressed bitmaps: the row-gather then
// costs a handful of bitmap sweeps even on sparse frontiers, and a run
// container ORs into the accumulator in whole-interval strides instead
// of per-word sweeps, so the algebraic crossover sits far lower than
// for streamed chain walks and the gate is correspondingly more
// aggressive.
const LentDensityFraction = 4096

// PullFraction is the direction-optimizing BFS rule (Beamer's
// bottom-up switch): a level whose frontier holds more than
// unvisited/PullFraction nodes expands by pulling — probing each
// unvisited candidate's reverse row against the frontier mask —
// instead of pushing the union of frontier rows.
const PullFraction = 14

// Gate estimates a hop's frontier density and picks navigational vs
// algebraic execution (and push vs pull inside the BFS kernel). It is
// built per query from the engine's current object counts.
type Gate struct {
	// Candidates is |V| of the hop's target node type.
	Candidates int
	// MeanDeg is the mean out-degree of the hop's adjacency operator
	// (its edge count over its source node count).
	MeanDeg float64
	// Fraction overrides the density threshold divisor when positive;
	// zero means DensityFraction. Engines calibrate it to their row
	// access cost (LentDensityFraction for lent bitmap rows) and to how
	// much of the navigational path's work their worker pool absorbs.
	Fraction int
}

// WithFraction returns the gate with a calibrated threshold divisor.
func (g Gate) WithFraction(f int) Gate {
	g.Fraction = f
	return g
}

func (g Gate) fraction() float64 {
	if g.Fraction > 0 {
		return float64(g.Fraction)
	}
	return DensityFraction
}

// NewGate builds a gate for a hop whose adjacency has edges stored
// edges over srcNodes source rows, expanding into candidates target
// nodes.
func NewGate(candidates, srcNodes, edges int) Gate {
	g := Gate{Candidates: candidates}
	if srcNodes > 0 {
		g.MeanDeg = float64(edges) / float64(srcNodes)
	}
	return g
}

// UseMatrix reports whether a hop expanding frontierCard rows should
// run algebraically: the expected touched-edge count
// (frontierCard × MeanDeg) must reach Candidates/DensityFraction.
func (g Gate) UseMatrix(frontierCard int) bool {
	if frontierCard <= 0 || g.Candidates <= 0 {
		return false
	}
	return float64(frontierCard)*g.MeanDeg*g.fraction() >= float64(g.Candidates)
}

// UsePull reports whether a BFS level with frontierCard frontier nodes
// and unvisited remaining candidates should expand bottom-up.
func (g Gate) UsePull(frontierCard, unvisited int) bool {
	return frontierCard*PullFraction >= unvisited
}
