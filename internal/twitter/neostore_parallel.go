package twitter

import (
	"context"
	"sync"

	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/par"
)

// This file holds the navigational paths the Tuned profile runs on
// NeoStore for sparse anchors when it has more than one worker. The
// declarative engine executes one plan on one goroutine; parallelising
// *inside* it would mean a concurrent operator tree, so instead each
// query's semantics are restated imperatively over the concurrent-safe
// read path (FindNode / Relationships / NodeProp) and the first hop's
// result list is sharded with internal/par, exactly like the
// SparkStore. Every implementation mirrors its Cypher text row-for-row:
// per-edge path counting, the same WHERE filters, and the same ORDER BY
// c DESC, id LIMIT n ranking — so Faithful (Cypher) and Tuned return
// byte-identical results, which the determinism tests pin.

// minItemsPerShard is the 2-hop sharding cutoff for both stores: an
// anchor whose first hop is smaller than workers*minItemsPerShard uses
// fewer shards (down to inline execution), since expanding a handful of
// nodes is cheaper than forking goroutines for them.
const minItemsPerShard = 32

// errOnce captures the first error seen across worker shards.
type errOnce struct {
	once sync.Once
	err  error
}

func (e *errOnce) set(err error) {
	if err != nil {
		e.once.Do(func() { e.err = err })
	}
}

// countSharded is par.CountSharded over items, sized by mode and
// bounded by the query context: the context is checked before the
// fan-out, and each shard skips its remaining items once the context is
// done. check (the engine's CheckCtx) runs again after the shards
// return, so an abort counts into queries_timed_out or
// queries_cancelled exactly once.
func countSharded[T any, K comparable](q *runningQuery, check func(context.Context) error, mode execMode, pm par.Metrics, items []T, visit func(item T, acc map[K]int64)) (map[K]int64, error) {
	if err := check(q.ctx); err != nil {
		return nil, err
	}
	counts := par.CountSharded(mode.shards(len(items)), pm, items, func(item T, acc map[K]int64) {
		if q.ctx.Err() == nil {
			visit(item, acc)
		}
	})
	if err := check(q.ctx); err != nil {
		return nil, err
	}
	return counts, nil
}

// countNeighbors walks rel in dir from every node of items across the
// store's workers, counting each neighbor that keep admits once per
// edge.
func (s *NeoStore) countNeighbors(q *runningQuery, items []graph.NodeID, rel graph.TypeID, dir graph.Direction, keep func(graph.NodeID) bool) (map[graph.NodeID]int64, error) {
	var eo errOnce
	counts, err := countSharded(q, s.db.CheckCtx, s.mode, s.parm, items, func(n graph.NodeID, acc map[graph.NodeID]int64) {
		eo.set(s.db.Relationships(n, rel, dir, func(r neodb.Rel) bool {
			m := r.Dst
			if dir == graph.Incoming {
				m = r.Src
			}
			if keep(m) {
				acc[m]++
			}
			return true
		}))
	})
	if err != nil {
		return nil, err
	}
	return counts, eo.err
}

// neighborEdges returns the far end of each of n's rel edges in dir,
// one entry per edge (path semantics).
func (s *NeoStore) neighborEdges(n graph.NodeID, rel graph.TypeID, dir graph.Direction) ([]graph.NodeID, error) {
	var out []graph.NodeID
	err := s.db.Relationships(n, rel, dir, func(r neodb.Rel) bool {
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
	tweets, err := s.neighborEdges(a, mentions, graph.Incoming)
	if err != nil {
		return nil, err
	}
	counts, err := s.countNeighbors(q, tweets, mentions, graph.Outgoing, func(o graph.NodeID) bool { return o != a })
	if err != nil {
		return nil, err
	}
	return s.topNByNode(counts, uidKey, n)
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
	tweets, err := s.neighborEdges(h, tags, graph.Incoming)
	if err != nil {
		return nil, err
	}
	counts, err := s.countNeighbors(q, tweets, tags, graph.Outgoing, func(o graph.NodeID) bool { return o != h })
	if err != nil {
		return nil, err
	}
	out := make([]CountedTag, 0, len(counts))
	for node, c := range counts {
		v, err := s.db.NodeProp(node, tagKey)
		if err != nil {
			return nil, err
		}
		out = append(out, CountedTag{Tag: v.Str(), Count: c})
	}
	sortCountedTags(out)
	if n < len(out) {
		out = out[:n]
	}
	return out, nil
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
	followees, err := s.neighborEdges(a, follows, graph.Outgoing)
	if err != nil {
		return nil, err
	}
	direct := make(map[graph.NodeID]bool, len(followees))
	for _, f := range followees {
		direct[f] = true
	}
	counts, err := s.countNeighbors(q, followees, follows, dir, func(x graph.NodeID) bool { return x != a && !direct[x] })
	if err != nil {
		return nil, err
	}
	return s.topNByNode(counts, uidKey, n)
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
	tweets, err := s.neighborEdges(a, s.db.RelTypeID(RelMentions), graph.Incoming)
	if err != nil {
		return nil, err
	}
	counts, err := s.countNeighbors(q, tweets, s.db.RelTypeID(RelPosts), graph.Incoming, func(m graph.NodeID) bool { return m != a })
	if err != nil {
		return nil, err
	}
	followers := map[graph.NodeID]bool{}
	if err := s.db.Relationships(a, s.db.RelTypeID(RelFollows), graph.Incoming, func(r neodb.Rel) bool {
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
	return s.topNByNode(counts, uidKey, n)
}
