package bench

import (
	"fmt"
	"io"
)

// Experiment is one reproducible unit: a table, a figure, or a §4
// ablation.
type Experiment struct {
	ID    string // e.g. "table1", "fig4a", "phrasings"
	Title string
	Run   func(e *Env, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: characteristics of the data set", runTable1},
		{"table2", "Table 2: query workload (rows returned per engine, equality check)", runTable2},
		{"fig2", "Figure 2: import times for nodes and edges using the Neo4j-analog", runFig2},
		{"fig3", "Figure 3: import times for nodes and edges using the Sparksee-analog", runFig3},
		{"fig4a", "Figure 4(a,b): Q3.1 co-occurrence, avg time vs rows returned", runFig4Q31},
		{"fig4c", "Figure 4(c,d): Q4.1 recommendation, avg time vs rows returned", runFig4Q41},
		{"fig4e", "Figure 4(e,f): Q5.2 potential influence, avg time vs mention degree", runFig4Q52},
		{"fig4g", "Figure 4(g,h): Q6.1 shortest path, avg time vs path length", runFig4Q61},
		{"phrasings", "Ablation A (§4): three Cypher phrasings of the recommendation query", runPhrasings},
		{"plancache", "Ablation B (§4): plan-cache speedup from parameterised queries", runPlanCache},
		{"topn", "Ablation C (§4): overhead of ordering/dedup/limit in top-n queries", runTopN},
		{"coldcache", "Ablation D (§4): cold vs warm page cache, first-run cost vs degree", runColdCache},
		{"navtrav", "Ablation E (§4): raw navigation vs traversal classes", runNavVsTraversal},
		{"materialize", "§3.2.2: import cost of materialising the neighbor index", runMaterialize},
		{"semantic", "§5 future work: semantic-aware (type-partitioned) record layout", runSemantic},
		{"densenodes", "§3.2.1: relationship groups — the payoff of the dense-node import step", runDenseNodes},
		{"derived", "§3.3: derived topic-experts query on both engines", runDerived},
		{"updates", "§5 future work: incremental update workload on both engines", runUpdates},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, ex := range All() {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll executes every experiment, writing each report to w.
func RunAll(e *Env, w io.Writer) error {
	for _, ex := range All() {
		fmt.Fprintf(w, "\n=== %s — %s ===\n\n", ex.ID, ex.Title)
		if err := ex.Run(e, w); err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
	}
	return nil
}
