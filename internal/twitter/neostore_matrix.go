package twitter

import (
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/spmat"
)

// Algebraic (matrix) execution for the NeoStore multi-hop queries,
// mirroring sparkstore_matrix.go over the record-store engine. The
// first hop is always built imperatively — one relationship-chain walk
// for the anchor, cheap at any density — and its weighted frontier
// feeds the density gate, which runs the row-gather only on
// dense-enough frontiers and otherwise falls through to the store's
// navigational paths (the sharded imperative restatement, or the
// Cypher plan with one worker). Only the Tuned profile reaches this
// file. Per-edge counting at both hops keeps results byte-identical
// to both.

// neoGate builds the density gate for a hop expanding into nodes of
// candLabel. The record store keeps no per-type relationship counts,
// so the mean degree is the global estimate rels/nodes — coarse, but
// the gate only has to separate hub frontiers (hundreds of rows) from
// sparse ones (a handful), and those differ by orders of magnitude.
func (s *NeoStore) neoGate(candLabel string) spmat.Gate {
	cand := s.db.LabelCount(s.db.LabelID(candLabel))
	return spmat.NewGate(cand, int(s.db.NodeCount()), int(s.db.RelCount()))
}

// preGate is the gate's cheap first check: the anchor's O(1) degree
// counter (via RelSource.Row) bounds the frontier size, so sparse
// anchors skip the chain walk that would materialise a frontier the
// exact gate below discards. A false return records the navigational
// plan decision.
func (s *NeoStore) preGate(first spmat.Source, anchor uint64, g spmat.Gate) bool {
	if !s.mode.useMatrix(g, spmat.EstimateFrontier(first, anchor)) {
		s.spm.CountHop(false)
		return false
	}
	return true
}

// gatherSecondHop runs the gated hop: consult the gate (recording the
// choice), then gather the frontier's rows of second into a dense
// accumulator sharded across workers. Returns used=false when the gate
// sends the hop to the navigational path.
func (s *NeoStore) gatherSecondHop(q *runningQuery, frontier []spmat.WeightedID, second spmat.Source, g spmat.Gate) (*spmat.Accum, bool, error) {
	if !s.mode.useMatrix(g, len(frontier)) {
		s.spm.CountHop(false)
		return nil, false, nil
	}
	s.spm.CountHop(true)
	if err := s.db.CheckCtx(q.ctx); err != nil {
		return nil, true, err
	}
	acc, err := spmat.Gather(second, frontier, 0, s.mode.shards(len(frontier)), s.parm, &s.accPool)
	if err != nil {
		return nil, true, err
	}
	return acc, true, nil
}

// rankAccum is rankNodes over the columns of acc that skip keeps, and
// recycles acc. The matrix paths open rd after the gather, whose row
// reads open Readers of their own.
func rankAccum[T any](s *NeoStore, rd *neodb.Reader, acc *spmat.Accum, skip func(col uint64) bool, key graph.AttrID, n int, mk func(graph.Value, int64) T, by func(a, b T) int) ([]T, error) {
	cs := make([]nodeCount, 0, acc.Len())
	acc.ForEach(func(col uint64, c int64) {
		if !skip(col) {
			cs = append(cs, nodeCount{graph.NodeID(col), c})
		}
	})
	s.accPool.Put(acc)
	return rankNodes(rd, cs, key, n, mk, by)
}

// coMentionedMatrix is Q3.1 algebraically: frontier = the tweets
// mentioning A, gather their mentions-out rows, drop A.
func (s *NeoStore) coMentionedMatrix(q *runningQuery, uid int64, n int) ([]Counted, bool, error) {
	uidKey := s.db.PropKeyID(PropUID)
	mentions := s.db.RelTypeID(RelMentions)
	a, ok := s.db.FindNode(s.db.LabelID(LabelUser), uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, true, nil
	}
	first := s.db.RelSource(mentions, graph.Incoming)
	g := s.neoGate(LabelUser)
	if !s.preGate(first, uint64(a), g) {
		return nil, false, nil
	}
	frontier, err := spmat.WeightedFrontier(first, uint64(a), 0, &s.accPool)
	if err != nil {
		return nil, true, err
	}
	acc, used, err := s.gatherSecondHop(q, frontier, s.db.RelSource(mentions, graph.Outgoing), g)
	if !used || err != nil {
		return nil, used, err
	}
	rd, done := s.reader()
	defer done()
	out, err := rankAccum(s, rd, acc, func(col uint64) bool { return col == uint64(a) }, uidKey, n, countedUID, byCountThenID)
	return out, true, err
}

// coOccurringTagsMatrix is Q3.2 algebraically over the tags adjacency.
func (s *NeoStore) coOccurringTagsMatrix(q *runningQuery, tag string, n int) ([]CountedTag, bool, error) {
	tagKey := s.db.PropKeyID(PropTag)
	tags := s.db.RelTypeID(RelTags)
	h, ok := s.db.FindNode(s.db.LabelID(LabelHashtag), tagKey, graph.StringValue(tag))
	if !ok {
		return []CountedTag{}, true, nil
	}
	first := s.db.RelSource(tags, graph.Incoming)
	g := s.neoGate(LabelHashtag)
	if !s.preGate(first, uint64(h), g) {
		return nil, false, nil
	}
	frontier, err := spmat.WeightedFrontier(first, uint64(h), 0, &s.accPool)
	if err != nil {
		return nil, true, err
	}
	acc, used, err := s.gatherSecondHop(q, frontier, s.db.RelSource(tags, graph.Outgoing), g)
	if !used || err != nil {
		return nil, used, err
	}
	rd, done := s.reader()
	defer done()
	out, err := rankAccum(s, rd, acc, func(col uint64) bool { return col == uint64(h) }, tagKey, n, countedTag, byCountThenTag)
	return out, true, err
}

// recommendMatrix is Q4.1 (dir=Outgoing) / Q4.2 (dir=Incoming)
// algebraically. The frontier's distinct ids are exactly the `direct`
// exclusion set, so no second first-hop walk is needed. Q4.2's
// navigational e1 != e2 guard has no algebraic counterpart: reusing
// the first-hop edge backwards lands on A, which the col == a mask
// already drops.
func (s *NeoStore) recommendMatrix(q *runningQuery, uid int64, n int, dir graph.Direction) ([]Counted, bool, error) {
	uidKey := s.db.PropKeyID(PropUID)
	follows := s.db.RelTypeID(RelFollows)
	a, ok := s.db.FindNode(s.db.LabelID(LabelUser), uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, true, nil
	}
	first := s.db.RelSource(follows, graph.Outgoing)
	g := s.neoGate(LabelUser)
	if !s.preGate(first, uint64(a), g) {
		return nil, false, nil
	}
	frontier, err := spmat.WeightedFrontier(first, uint64(a), 0, &s.accPool)
	if err != nil {
		return nil, true, err
	}
	acc, used, err := s.gatherSecondHop(q, frontier, s.db.RelSource(follows, dir), g)
	if !used || err != nil {
		return nil, used, err
	}
	direct := make(map[uint64]bool, len(frontier))
	for _, f := range frontier {
		direct[f.ID] = true
	}
	rd, done := s.reader()
	defer done()
	out, err := rankAccum(s, rd, acc, func(col uint64) bool { return col == uint64(a) || direct[col] }, uidKey, n, countedUID, byCountThenID)
	return out, true, err
}

// influenceMatrix is Q5 algebraically: frontier = the tweets
// mentioning A, gather their posts-in rows (each tweet's author), drop
// A, then keep or drop A's followers.
func (s *NeoStore) influenceMatrix(q *runningQuery, uid int64, n int, keepFollowers bool) ([]Counted, bool, error) {
	uidKey := s.db.PropKeyID(PropUID)
	mentions := s.db.RelTypeID(RelMentions)
	posts := s.db.RelTypeID(RelPosts)
	follows := s.db.RelTypeID(RelFollows)
	a, ok := s.db.FindNode(s.db.LabelID(LabelUser), uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, true, nil
	}
	first := s.db.RelSource(mentions, graph.Incoming)
	g := s.neoGate(LabelUser)
	if !s.preGate(first, uint64(a), g) {
		return nil, false, nil
	}
	frontier, err := spmat.WeightedFrontier(first, uint64(a), 0, &s.accPool)
	if err != nil {
		return nil, true, err
	}
	acc, used, err := s.gatherSecondHop(q, frontier, s.db.RelSource(posts, graph.Incoming), g)
	if !used || err != nil {
		return nil, used, err
	}
	rd, done := s.reader()
	defer done()
	followers := map[uint64]bool{}
	if err := rd.Relationships(a, follows, graph.Incoming, func(r neodb.Rel) bool {
		followers[uint64(r.Src)] = true
		return true
	}); err != nil {
		s.accPool.Put(acc)
		return nil, true, err
	}
	out, err := rankAccum(s, rd, acc, func(col uint64) bool {
		return col == uint64(a) || followers[col] != keepFollowers
	}, uidKey, n, countedUID, byCountThenID)
	return out, true, err
}

// shortestPathMatrix is Q6.1 algebraically: a direction-optimizing
// masked-SpMV BFS over the follows adjacency, with the user label's
// node set as the pull-side candidate universe. Tuned always routes
// here: the gate's per-level decision for a BFS is push vs pull inside
// the kernel.
func (s *NeoStore) shortestPathMatrix(q *runningQuery, fromUID, toUID int64, maxHops int) (int, bool, error) {
	user := s.db.LabelID(LabelUser)
	uidKey := s.db.PropKeyID(PropUID)
	follows := s.db.RelTypeID(RelFollows)
	a, ok := s.db.FindNode(user, uidKey, graph.IntValue(fromUID))
	if !ok {
		return 0, false, nil
	}
	b, ok := s.db.FindNode(user, uidKey, graph.IntValue(toUID))
	if !ok {
		return 0, false, nil
	}
	s.spm.CountHop(true)
	return spmat.BFSLength(
		s.db.RelSource(follows, graph.Outgoing),
		s.db.RelSource(follows, graph.Incoming),
		s.db.NodesByLabel(user),
		uint64(a), uint64(b), maxHops, s.mode.workers, s.neoGate(LabelUser), s.parm, s.spm,
		func() error { return s.db.CheckCtx(q.ctx) })
}
