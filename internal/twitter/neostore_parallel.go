package twitter

import (
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/par"
)

// This file holds the navigational paths the Tuned profile runs on
// NeoStore for sparse anchors when it has more than one worker. The
// declarative engine executes one plan on one goroutine; parallelising
// *inside* it would mean a concurrent operator tree, so instead each
// query's semantics are restated imperatively over neodb Readers (the
// query's own, and one borrowed per extra shard) and the first hop's
// result list is sharded with internal/par, like the SparkStore's. Every implementation mirrors its Cypher text row-for-row:
// per-edge path counting, the same WHERE filters, and the same ORDER BY
// c DESC, id LIMIT n ranking — so Faithful (Cypher) and Tuned return
// byte-identical results, which the determinism tests pin.

// minItemsPerShard is the 2-hop sharding cutoff for both stores: an
// anchor whose first hop is smaller than workers*minItemsPerShard uses
// fewer shards (down to inline execution), since expanding a handful of
// nodes is cheaper than forking goroutines for them.
const minItemsPerShard = 32

// reader opens the query's Reader on the store and counts it as
// neodb/readers.go asks an execution's Reader to be; done closes it.
func (s *NeoStore) reader() (rd *neodb.Reader, done func()) {
	r := s.db.Reader()
	s.db.HoldReader()
	return &r, func() {
		r.Close()
		s.db.ReleaseReader()
	}
}

// countNeighbors walks rel in dir from every node of items across the
// store's workers, counting each neighbor that keep admits once per
// edge. The first shard reads through rd, the query's Reader, and each
// other shard through a Reader it borrows (neodb.DB.BorrowReaders), so
// there are fewer shards when the page caches have few frames to spare.
// The context is polled as SparkStore.countSharded polls it.
func (s *NeoStore) countNeighbors(q *runningQuery, rd *neodb.Reader, items []graph.NodeID, rel graph.TypeID, dir graph.Direction, keep func(graph.NodeID) bool) (map[graph.NodeID]int64, error) {
	if err := s.db.CheckCtx(q.ctx); err != nil {
		return nil, err
	}
	shards := s.mode.shards(len(items))
	if shards > 1 {
		shards = 1 + s.db.BorrowReaders(shards-1)
		defer func() {
			for range shards - 1 {
				s.db.ReturnReader()
			}
		}()
	}
	type part struct {
		counts map[graph.NodeID]int64
		err    error
	}
	parts := par.RunRanges(shards, len(items), s.parm, func(lo, hi int) part {
		r := rd
		if lo > 0 {
			own := s.db.Reader()
			defer own.Close()
			r = &own
		}
		acc := make(map[graph.NodeID]int64)
		for _, n := range items[lo:hi] {
			if q.ctx.Err() != nil {
				break
			}
			err := r.Relationships(n, rel, dir, func(e neodb.Rel) bool {
				m := e.Dst
				if dir == graph.Incoming {
					m = e.Src
				}
				if keep(m) {
					acc[m]++
				}
				return true
			})
			if err != nil {
				return part{err: err}
			}
		}
		return part{counts: acc}
	})
	counts := make([]map[graph.NodeID]int64, len(parts))
	for i, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		counts[i] = p.counts
	}
	if err := s.db.CheckCtx(q.ctx); err != nil {
		return nil, err
	}
	return par.SumCounts(s.parm, counts), nil
}

// neighborEdges returns the far end of each of n's rel edges in dir,
// one entry per edge (path semantics).
func neighborEdges(rd *neodb.Reader, n graph.NodeID, rel graph.TypeID, dir graph.Direction) ([]graph.NodeID, error) {
	var out []graph.NodeID
	err := rd.Relationships(n, rel, dir, func(r neodb.Rel) bool {
		if dir == graph.Incoming {
			out = append(out, r.Src)
		} else {
			out = append(out, r.Dst)
		}
		return true
	})
	return out, err
}

// coMentionedParallel is Q3.1: tweets mentioning A fan out to the other
// users they mention, counted per path.
func (s *NeoStore) coMentionedParallel(q *runningQuery, uid int64, n int) ([]Counted, error) {
	uidKey := s.db.PropKeyID(PropUID)
	mentions := s.db.RelTypeID(RelMentions)
	a, ok := s.db.FindNode(s.db.LabelID(LabelUser), uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, nil
	}
	rd, done := s.reader()
	defer done()
	tweets, err := neighborEdges(rd, a, mentions, graph.Incoming)
	if err != nil {
		return nil, err
	}
	counts, err := s.countNeighbors(q, rd, tweets, mentions, graph.Outgoing, func(o graph.NodeID) bool { return o != a })
	if err != nil {
		return nil, err
	}
	return rankNodes(rd, countsOf(counts), uidKey, n, countedUID, byCountThenID)
}

// coOccurringTagsParallel is Q3.2: same shape as Q3.1 over the tags
// relationship, ranked by tag string.
func (s *NeoStore) coOccurringTagsParallel(q *runningQuery, tag string, n int) ([]CountedTag, error) {
	tagKey := s.db.PropKeyID(PropTag)
	tags := s.db.RelTypeID(RelTags)
	h, ok := s.db.FindNode(s.db.LabelID(LabelHashtag), tagKey, graph.StringValue(tag))
	if !ok {
		return []CountedTag{}, nil
	}
	rd, done := s.reader()
	defer done()
	tweets, err := neighborEdges(rd, h, tags, graph.Incoming)
	if err != nil {
		return nil, err
	}
	counts, err := s.countNeighbors(q, rd, tweets, tags, graph.Outgoing, func(o graph.NodeID) bool { return o != h })
	if err != nil {
		return nil, err
	}
	return rankNodes(rd, countsOf(counts), tagKey, n, countedTag, byCountThenTag)
}

// recommendParallel is Q4.1 (dir=Outgoing: method b, depth-2 followee
// paths) and Q4.2 (dir=Incoming: followers of A's followees), both
// excluding A and A's direct followees. Workers share the read-only
// direct set.
func (s *NeoStore) recommendParallel(q *runningQuery, uid int64, n int, dir graph.Direction) ([]Counted, error) {
	uidKey := s.db.PropKeyID(PropUID)
	follows := s.db.RelTypeID(RelFollows)
	a, ok := s.db.FindNode(s.db.LabelID(LabelUser), uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, nil
	}
	rd, done := s.reader()
	defer done()
	followees, err := neighborEdges(rd, a, follows, graph.Outgoing)
	if err != nil {
		return nil, err
	}
	direct := make(map[graph.NodeID]bool, len(followees))
	for _, f := range followees {
		direct[f] = true
	}
	counts, err := s.countNeighbors(q, rd, followees, follows, dir, func(x graph.NodeID) bool { return x != a && !direct[x] })
	if err != nil {
		return nil, err
	}
	return rankNodes(rd, countsOf(counts), uidKey, n, countedUID, byCountThenID)
}

// influenceParallel serves Q5.1 (keepFollowers=true) and Q5.2
// (keepFollowers=false): count the users posting tweets that mention A,
// then keep or drop the ones already following A. The follower check is
// existential, matching the Cypher pattern predicate
// `(m)-[:follows]->(a)`.
func (s *NeoStore) influenceParallel(q *runningQuery, uid int64, n int, keepFollowers bool) ([]Counted, error) {
	uidKey := s.db.PropKeyID(PropUID)
	a, ok := s.db.FindNode(s.db.LabelID(LabelUser), uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, nil
	}
	rd, done := s.reader()
	defer done()
	tweets, err := neighborEdges(rd, a, s.db.RelTypeID(RelMentions), graph.Incoming)
	if err != nil {
		return nil, err
	}
	counts, err := s.countNeighbors(q, rd, tweets, s.db.RelTypeID(RelPosts), graph.Incoming, func(m graph.NodeID) bool { return m != a })
	if err != nil {
		return nil, err
	}
	followers := map[graph.NodeID]bool{}
	if err := rd.Relationships(a, s.db.RelTypeID(RelFollows), graph.Incoming, func(r neodb.Rel) bool {
		followers[r.Src] = true
		return true
	}); err != nil {
		return nil, err
	}
	for m := range counts {
		if followers[m] != keepFollowers {
			delete(counts, m)
		}
	}
	return rankNodes(rd, countsOf(counts), uidKey, n, countedUID, byCountThenID)
}
