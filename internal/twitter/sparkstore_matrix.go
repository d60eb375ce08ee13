package twitter

import (
	"twigraph/internal/graph"
	"twigraph/internal/spmat"
)

// Algebraic (matrix) execution for the SparkStore 2-hop and BFS
// workload queries. Each 2-hop query is one row of a masked SpGEMM:
// the first hop materialises a weighted frontier (distinct middle
// nodes, edge multiplicities as weights) from the anchor's own
// adjacency row, and the second hop gathers the frontier's rows into a
// dense accumulator, sharded across workers. The second hop is the
// expensive one, so it is the gated hop: the gather runs only when
// the frontier is dense enough (frontier cardinality × mean out-degree
// vs the candidate count). Only the Tuned profile reaches this file.
// Path counts are per-edge at both hops, so results are byte-identical
// to the navigational and declarative executions — the profile
// differential tests pin that.

// secondHopGate builds the density gate for a 2-hop query whose gated
// hop expands rows of edgeType into candidates of candType. Mean
// degree comes from the engine's live object counts: edges of the hop
// type over rows of its source type.
func (s *SparkStore) secondHopGate(candType, srcType, edgeType graph.TypeID) spmat.Gate {
	return spmat.NewGate(s.db.CountObjects(candType), s.db.CountObjects(srcType), s.db.CountObjects(edgeType))
}

// twoHopGather runs the frontier build and, if the gate admits it, the
// masked row-gather. first is the anchor's first-hop operator, second
// the gated hop's operator; midBase/outBase anchor the two dense
// accumulators in the respective types' OID ranges. Returns
// (nil, false, nil) when the gate sends the hop to the navigational
// path — the caller falls through to its existing code.
func (s *SparkStore) twoHopGather(q *runningQuery, first, second spmat.Source, anchor uint64, midBase, outBase uint64, g spmat.Gate) (*spmat.Accum, bool, error) {
	// The engine's row access — lent run-compressed bitmaps when
	// materialised, array-backed endpoint streams otherwise — is cheap
	// at every density (no per-edge OID decoding), so the algebraic
	// crossover sits far below the chain-walking default.
	g = g.WithFraction(spmat.LentDensityFraction)
	// The gate first checks the anchor row's cheap cardinality bound,
	// so sparse anchors skip the frontier build entirely instead of
	// paying for one the exact gate below would discard.
	if !s.mode.useMatrix(g, spmat.EstimateFrontier(first, anchor)) {
		s.spm.CountHop(false)
		return nil, false, nil
	}
	frontier, err := spmat.WeightedFrontier(first, anchor, midBase, &s.accPool)
	if err != nil {
		return nil, false, err
	}
	if !s.mode.useMatrix(g, len(frontier)) {
		s.spm.CountHop(false)
		return nil, false, nil
	}
	s.spm.CountHop(true)
	if err := s.db.CheckCtx(q.ctx); err != nil {
		return nil, true, err
	}
	acc, err := spmat.Gather(second, frontier, outBase, s.mode.shards(len(frontier)), s.parm, &s.accPool)
	if err != nil {
		return nil, true, err
	}
	return acc, true, nil
}

// topNAccum ranks an accumulator's columns like topN ranks a counting
// map: count descending, uid ascending, trimmed to n. skip drops
// excluded columns (the anchor itself, already-followed users). The
// accumulator is recycled.
func (s *SparkStore) topNAccum(acc *spmat.Accum, n int, skip func(col uint64) bool) []Counted {
	out := make([]Counted, 0, acc.Len())
	acc.ForEach(func(col uint64, c int64) {
		if skip != nil && skip(col) {
			return
		}
		out = append(out, Counted{ID: s.uidOf(col), Count: c})
	})
	s.accPool.Put(acc)
	return firstN(out, n, byCountThenID)
}

// coMentionedMatrix is Q3.1 algebraically: frontier = the tweets
// mentioning A (mentions-in row, per-edge weights), gather their
// mentions-out rows, drop A.
func (s *SparkStore) coMentionedMatrix(q *runningQuery, a uint64, n int) ([]Counted, bool, error) {
	g := s.secondHopGate(s.user, s.tweet, s.mentions)
	acc, used, err := s.twoHopGather(q,
		s.db.EdgeSource(s.mentions, graph.Incoming),
		s.db.EdgeSource(s.mentions, graph.Outgoing),
		a, s.db.TypeBase(s.tweet), s.db.TypeBase(s.user), g)
	if !used || err != nil {
		return nil, used, err
	}
	return s.topNAccum(acc, n, func(col uint64) bool { return col == a }), true, nil
}

// coOccurringTagsMatrix is Q3.2 algebraically over the tags adjacency.
func (s *SparkStore) coOccurringTagsMatrix(q *runningQuery, h uint64, n int) ([]CountedTag, bool, error) {
	g := s.secondHopGate(s.hashtag, s.tweet, s.tags)
	acc, used, err := s.twoHopGather(q,
		s.db.EdgeSource(s.tags, graph.Incoming),
		s.db.EdgeSource(s.tags, graph.Outgoing),
		h, s.db.TypeBase(s.tweet), s.db.TypeBase(s.hashtag), g)
	if !used || err != nil {
		return nil, used, err
	}
	out := make([]CountedTag, 0, acc.Len())
	acc.ForEach(func(col uint64, c int64) {
		if col == h {
			return
		}
		out = append(out, CountedTag{Tag: s.db.GetAttribute(col, s.tagAttr).Str(), Count: c})
	})
	s.accPool.Put(acc)
	return firstN(out, n, byCountThenTag), true, nil
}

// recommendMatrix is Q4.1/Q4.2 algebraically: frontier = A's followees
// (follows-out row), gather follows-out (Q4.1: followees-of-followees)
// or follows-in (Q4.2: followers-of-followees) rows, drop A and A's
// direct followees. Q4.2's navigational e1 != e2 guard needs no
// algebraic counterpart: reusing the first-hop edge backwards lands on
// A itself, which the col == a mask already drops.
func (s *SparkStore) recommendMatrix(q *runningQuery, a uint64, n int, dir graph.Direction) ([]Counted, bool, error) {
	g := s.secondHopGate(s.user, s.user, s.follows)
	acc, used, err := s.twoHopGather(q,
		s.db.EdgeSource(s.follows, graph.Outgoing),
		s.db.EdgeSource(s.follows, dir),
		a, s.db.TypeBase(s.user), s.db.TypeBase(s.user), g)
	if !used || err != nil {
		return nil, used, err
	}
	direct := s.db.Neighbors(a, s.follows, graph.Outgoing)
	return s.topNAccum(acc, n, func(col uint64) bool { return col == a || direct.Contains(col) }), true, nil
}

// influenceMatrix is Q5 algebraically: frontier = the tweets
// mentioning A, gather their posts-in rows (each tweet's author, once
// per post edge), drop A, then keep or drop A's followers.
func (s *SparkStore) influenceMatrix(q *runningQuery, a uint64, n int, keepFollowers bool) ([]Counted, bool, error) {
	g := s.secondHopGate(s.user, s.tweet, s.posts)
	acc, used, err := s.twoHopGather(q,
		s.db.EdgeSource(s.mentions, graph.Incoming),
		s.db.EdgeSource(s.posts, graph.Incoming),
		a, s.db.TypeBase(s.tweet), s.db.TypeBase(s.user), g)
	if !used || err != nil {
		return nil, used, err
	}
	followers := s.db.Neighbors(a, s.follows, graph.Incoming)
	return s.topNAccum(acc, n, func(col uint64) bool {
		return col == a || followers.Contains(col) != keepFollowers
	}), true, nil
}

// shortestPathMatrix is Q6.1 algebraically: a direction-optimizing
// masked-SpMV BFS over the follows adjacency. Tuned always routes
// here — the per-level choice the gate makes for a BFS is push vs
// pull inside the kernel.
func (s *SparkStore) shortestPathMatrix(q *runningQuery, a, b uint64, maxHops int) (int, bool, error) {
	s.spm.CountHop(true)
	g := s.secondHopGate(s.user, s.user, s.follows)
	return spmat.BFSLength(
		s.db.EdgeSource(s.follows, graph.Outgoing),
		s.db.EdgeSource(s.follows, graph.Incoming),
		s.db.Universe(s.user),
		a, b, maxHops, s.mode.workers, g, s.parm, s.spm,
		func() error { return s.db.CheckCtx(q.ctx) })
}
