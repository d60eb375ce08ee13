package neodb

import (
	"context"

	"twigraph/internal/graph"
)

// This file implements the imperative traversal framework — the "core
// API" alternative to the declarative query language. The paper notes
// that queries rewritten against the traversal framework ran slightly
// faster than their Cypher forms but took significant effort to express;
// ablation benchmarks compare the two code paths on identical queries.

// Uniqueness controls how often a node may be visited during one
// traversal.
type Uniqueness uint8

// Uniqueness levels (Neo4j's NODE_GLOBAL and NONE).
const (
	NodeGlobal Uniqueness = iota // visit each node at most once
	NoneUnique                   // no pruning; every path is expanded
)

// Expander selects one relationship type and direction to follow.
type Expander struct {
	Type graph.TypeID
	Dir  graph.Direction
}

// TraversalDescription is a reusable, immutable-ish description of a
// graph walk: which relationships to expand, how deep, with what
// uniqueness, and an optional per-step evaluator.
type TraversalDescription struct {
	db         *DB
	ctx        context.Context
	expanders  []Expander
	minDepth   int
	maxDepth   int
	uniqueness Uniqueness
	breadth    bool
	evaluator  func(Path) Evaluation
}

// Evaluation is an evaluator verdict for one path.
type Evaluation uint8

// Evaluator verdicts: whether to emit the path and whether to expand
// beyond it.
const (
	IncludeAndContinue Evaluation = iota
	IncludeAndPrune
	ExcludeAndContinue
	ExcludeAndPrune
)

// Path is a traversal position: the visited node sequence (start first)
// and the relationship ids connecting them.
type Path struct {
	Nodes []graph.NodeID
	Rels  []graph.EdgeID
}

// End returns the last node of the path.
func (p Path) End() graph.NodeID { return p.Nodes[len(p.Nodes)-1] }

// Length returns the number of relationships in the path.
func (p Path) Length() int { return len(p.Rels) }

// NewTraversal starts a traversal description with BFS order, depth
// exactly 1, and global node uniqueness.
func (db *DB) NewTraversal() *TraversalDescription {
	return &TraversalDescription{db: db, minDepth: 1, maxDepth: 1, breadth: true}
}

// Expand adds a relationship type and direction to follow.
func (td *TraversalDescription) Expand(t graph.TypeID, dir graph.Direction) *TraversalDescription {
	td.expanders = append(td.expanders, Expander{t, dir})
	return td
}

// Depths sets the inclusive depth range of emitted paths.
func (td *TraversalDescription) Depths(min, max int) *TraversalDescription {
	td.minDepth, td.maxDepth = min, max
	return td
}

// Uniqueness sets the node-revisit policy.
func (td *TraversalDescription) Uniqueness(u Uniqueness) *TraversalDescription {
	td.uniqueness = u
	return td
}

// DepthFirst switches expansion to DFS order.
func (td *TraversalDescription) DepthFirst() *TraversalDescription {
	td.breadth = false
	return td
}

// WithContext bounds the traversal by ctx: each expansion step polls it
// and Traverse returns the (counted) abort error once it is done or
// past its deadline.
func (td *TraversalDescription) WithContext(ctx context.Context) *TraversalDescription {
	td.ctx = ctx
	return td
}

// Evaluate sets a per-path evaluator.
func (td *TraversalDescription) Evaluate(fn func(Path) Evaluation) *TraversalDescription {
	td.evaluator = fn
	return td
}

// Traverse runs the description from start, invoking fn for every
// emitted path until fn returns false. The walk reads relationship
// chains through the page cache, so its cost profile matches the
// declarative layer's Expand operators.
func (td *TraversalDescription) Traverse(start graph.NodeID, fn func(Path) bool) error {
	type frame struct {
		path Path
	}
	visited := map[graph.NodeID]bool{start: true}
	queue := []frame{{Path{Nodes: []graph.NodeID{start}}}}
	for len(queue) > 0 {
		if err := td.db.checkCtx(td.ctx); err != nil {
			return err
		}
		var cur frame
		if td.breadth {
			cur, queue = queue[0], queue[1:]
		} else {
			cur, queue = queue[len(queue)-1], queue[:len(queue)-1]
		}
		depth := cur.path.Length()

		include := depth >= td.minDepth
		prune := depth >= td.maxDepth
		if td.evaluator != nil && depth > 0 {
			switch td.evaluator(cur.path) {
			case IncludeAndPrune:
				prune = true
			case ExcludeAndContinue:
				include = false
			case ExcludeAndPrune:
				include = false
				prune = true
			}
		}
		if include && depth > 0 {
			if !fn(cur.path) {
				return nil
			}
		}
		if prune {
			continue
		}
		for _, ex := range td.expanders {
			err := td.db.Relationships(cur.path.End(), ex.Type, ex.Dir, func(r Rel) bool {
				next := r.Dst
				if next == cur.path.End() && r.Src != r.Dst {
					next = r.Src
				}
				if td.uniqueness == NodeGlobal {
					if visited[next] {
						return true
					}
					visited[next] = true
				}
				nodes := append(append([]graph.NodeID(nil), cur.path.Nodes...), next)
				rels := append(append([]graph.EdgeID(nil), cur.path.Rels...), r.ID)
				queue = append(queue, frame{Path{Nodes: nodes, Rels: rels}})
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ShortestPath finds a shortest path between two nodes following the
// given expanders with a hop bound — Neo4j's shortestPath primitive.
// Like Neo4j's, the search is *bidirectional*: it expands the smaller
// of the two frontiers (forward from the source, backward from the
// target), visiting O(b^(h/2)) nodes instead of O(b^h). This algorithmic
// edge is why the paper observes that "Neo4j seems to perform shortest
// path queries more efficiently" than the unidirectional navigation-API
// engine.
//
// Correctness of the early exit follows the standard argument: once the
// explored depths satisfy depth(fwd)+depth(bwd) >= L for the true
// shortest length L, the midpoint of any shortest path lies in both BFS
// trees, so a meeting with candidate length exactly L has been
// recorded.
func (db *DB) ShortestPath(from, to graph.NodeID, expanders []Expander, maxHops int) (Path, bool, error) {
	return db.ShortestPathCtx(nil, from, to, expanders, maxHops)
}

// ShortestPathCtx is ShortestPath bounded by ctx: the search polls the
// context before expanding each BFS level and aborts with a counted
// error once it is cancelled or past its deadline. A nil ctx never
// aborts.
func (db *DB) ShortestPathCtx(ctx context.Context, from, to graph.NodeID, expanders []Expander, maxHops int) (Path, bool, error) {
	if from == to {
		return Path{Nodes: []graph.NodeID{from}}, true, nil
	}
	fwd := newBFSSide(from)
	bwd := newBFSSide(to)
	best := maxHops + 1
	var bestMeet graph.NodeID
	for fwd.depth+bwd.depth < best && fwd.depth+bwd.depth < maxHops {
		if err := db.checkCtx(ctx); err != nil {
			return Path{}, false, err
		}
		// Expand the cheaper side; an exhausted side is complete, so
		// the other keeps going.
		side, other, reversed := fwd, bwd, false
		if len(fwd.frontier) == 0 || (len(bwd.frontier) > 0 && len(bwd.frontier) < len(fwd.frontier)) {
			side, other, reversed = bwd, fwd, true
		}
		if len(side.frontier) == 0 {
			break // both exhausted
		}
		meets, err := db.expandSide(side, other, expanders, reversed)
		if err != nil {
			return Path{}, false, err
		}
		for _, m := range meets {
			if c := fwd.dist[m] + bwd.dist[m]; c < best {
				best, bestMeet = c, m
			}
		}
	}
	if best > maxHops {
		return Path{}, false, nil
	}
	return stitch(fwd.parents, bwd.parents, from, to, bestMeet), true, nil
}

// bfsSide is one direction of the bidirectional search.
type bfsSide struct {
	parents  map[graph.NodeID]bfsLink
	dist     map[graph.NodeID]int
	frontier []graph.NodeID
	depth    int
}

func newBFSSide(start graph.NodeID) *bfsSide {
	return &bfsSide{
		parents:  map[graph.NodeID]bfsLink{start: {start, 0}},
		dist:     map[graph.NodeID]int{start: 0},
		frontier: []graph.NodeID{start},
	}
}

// expandSide advances one side by one full level and returns the nodes
// where it met the other side's tree.
func (db *DB) expandSide(side, other *bfsSide, expanders []Expander, reversed bool) ([]graph.NodeID, error) {
	var next []graph.NodeID
	var meets []graph.NodeID
	for _, n := range side.frontier {
		for _, ex := range expanders {
			dir := ex.Dir
			if reversed {
				dir = dir.Reverse()
			}
			err := db.Relationships(n, ex.Type, dir, func(r Rel) bool {
				m := r.Dst
				if m == n && r.Src != r.Dst {
					m = r.Src
				}
				if _, seen := side.parents[m]; seen {
					return true
				}
				side.parents[m] = bfsLink{n, r.ID}
				side.dist[m] = side.depth + 1
				if _, hit := other.parents[m]; hit {
					meets = append(meets, m)
				}
				next = append(next, m)
				return true
			})
			if err != nil {
				return nil, err
			}
		}
	}
	side.frontier = next
	side.depth++
	return meets, nil
}

// bfsLink records how a BFS reached a node.
type bfsLink struct {
	parent graph.NodeID
	rel    graph.EdgeID
}

// stitch joins the two parent trees at the meeting node into a
// start-first path.
func stitch(fwd, bwd map[graph.NodeID]bfsLink, from, to, meet graph.NodeID) Path {
	// Walk meet -> from through the forward tree (collected reversed).
	var nodes []graph.NodeID
	var rels []graph.EdgeID
	for n := meet; ; {
		nodes = append(nodes, n)
		l := fwd[n]
		if n == from {
			break
		}
		rels = append(rels, l.rel)
		n = l.parent
	}
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(rels)-1; i < j; i, j = i+1, j-1 {
		rels[i], rels[j] = rels[j], rels[i]
	}
	// Append meet -> to through the backward tree.
	for n := meet; n != to; {
		l := bwd[n]
		rels = append(rels, l.rel)
		n = l.parent
		nodes = append(nodes, n)
	}
	return Path{Nodes: nodes, Rels: rels}
}
