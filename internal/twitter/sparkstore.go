package twitter

import (
	"context"
	"fmt"
	"sort"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/obs"
	"twigraph/internal/par"
	"twigraph/internal/sparkdb"
	"twigraph/internal/spmat"
)

// SparkStore implements the workload on the Sparksee-analog engine
// through raw navigation operations (Neighbors/Explode), the way the
// paper ran it: "a map structure is used for maintaining the required
// counts. These counts are then sorted to obtain the final result. Its
// API does not provide the functionality to limit the returned
// results." — all top-n trimming happens client-side here.
type SparkStore struct {
	db *sparkdb.DB

	mode     execMode        // what the profile resolves to (Tuned by default)
	timeout  time.Duration   // per-query deadline; 0 = unbounded
	baseCtx  context.Context // parent of every query ctx; nil = Background
	parm     par.Metrics     // shard/merge counters on the engine registry
	qLatency *obs.Histogram  // per-query wall time (query_latency)
	spm      *spmat.Metrics  // plan-choice and kernel-round counters
	accPool  spmat.AccumPool

	user, tweet, hashtag           graph.TypeID
	follows, posts, mentions, tags graph.TypeID
	retweets                       graph.TypeID
	uidAttr, tidAttr, hidAttr      graph.AttrID
	screenAttr, followersAttr      graph.AttrID
	textAttr, tagAttr              graph.AttrID
}

// NewSparkStore wraps an opened sparkdb database whose schema matches
// the generator layout, running the Tuned profile.
func NewSparkStore(db *sparkdb.DB) (*SparkStore, error) {
	s := &SparkStore{db: db, mode: profileMode(spmat.Tuned), parm: par.MetricsFrom(db.Obs()),
		qLatency: db.Obs().Histogram(QueryLatencyHist)}
	// Shard executions of the parallel workload paths land on the
	// engine's timeline next to its spans.
	s.parm.Trace = db.Trace()
	s.spm = spmat.MetricsFrom(db.Obs())
	s.user = db.FindType(LabelUser)
	s.tweet = db.FindType(LabelTweet)
	s.hashtag = db.FindType(LabelHashtag)
	s.follows = db.FindType(RelFollows)
	s.posts = db.FindType(RelPosts)
	s.mentions = db.FindType(RelMentions)
	s.tags = db.FindType(RelTags)
	s.retweets = db.FindType(RelRetweets) // may be NilType
	if s.user == graph.NilType || s.tweet == graph.NilType || s.follows == graph.NilType {
		return nil, fmt.Errorf("twitter: sparkdb image lacks the schema")
	}
	s.uidAttr = db.FindAttribute(s.user, PropUID)
	s.screenAttr = db.FindAttribute(s.user, PropScreenName)
	s.followersAttr = db.FindAttribute(s.user, PropFollowers)
	s.tidAttr = db.FindAttribute(s.tweet, PropTID)
	s.textAttr = db.FindAttribute(s.tweet, PropText)
	if s.hashtag != graph.NilType {
		s.hidAttr = db.FindAttribute(s.hashtag, PropHID)
		s.tagAttr = db.FindAttribute(s.hashtag, PropTag)
	}
	return s, nil
}

// Name implements Store.
func (s *SparkStore) Name() string { return "sparksee" }

// SetProfile selects how the multi-hop queries (Q3.1–Q6.1) execute.
// Faithful runs the navigation operations one query at a time, as the
// paper did. Tuned sends dense hops to the spmat kernels
// (sparkstore_matrix.go) and shards the navigation of sparse ones
// across GOMAXPROCS workers. Every profile returns byte-identical
// results. Not synchronised, like SetQueryTimeout.
func (s *SparkStore) SetProfile(p spmat.Profile) { s.mode = profileMode(p) }

// SetQueryTimeout bounds every subsequent navigation query by d.
// Queries that run past the deadline abort with a context error and
// count into the engine's queries_timed_out counter; d <= 0 removes the
// bound.
func (s *SparkStore) SetQueryTimeout(d time.Duration) { s.timeout = d }

// QueryTimeout returns the configured per-query deadline (0 =
// unbounded).
func (s *SparkStore) QueryTimeout() time.Duration { return s.timeout }

// queryCtx returns the context bounding one query (nil when no timeout
// is configured) and its cancel func.
func (s *SparkStore) queryCtx() (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return nil, func() {}
	}
	return context.WithTimeout(context.Background(), s.timeout)
}

// Obs exposes the engine's observability registry (bench snapshots).
func (s *SparkStore) Obs() *obs.Registry { return s.db.Obs() }

// Tracer exposes the engine's query tracer.
func (s *SparkStore) Tracer() *obs.Tracer { return s.db.Tracer() }

// ResetCounters zeroes the engine's observability counters.
func (s *SparkStore) ResetCounters() { s.db.ResetCounters() }

// Close implements Store. The sparkdb engine is in-memory; nothing to
// release.
func (s *SparkStore) Close() error { return nil }

// DB exposes the underlying engine for benchmarks.
func (s *SparkStore) DB() *sparkdb.DB { return s.db }

// beginQuery opens attribution for one workload method: wall time into
// the query_latency histogram and the per-fingerprint statistics
// registry and, when the tracer is on, a "spark: <name>" span carrying
// the query ID so the navigation paths show up in the slow log and
// trace timeline like the Cypher ones do. Use with named returns as
// `q := s.beginQuery("Method"); defer func() { q.finish(err,
// len(out)) }()`.
func (s *SparkStore) beginQuery(name string) *runningQuery {
	return beginStoreQuery("spark: "+name, s.db.Tracer(), s.db.QueryStats(), s.qLatency, s.baseCtx, s.timeout)
}

// SetBaseContext parents every subsequent query context on ctx (see
// NeoStore.SetBaseContext — same contract: per-goroutine store handles,
// nil restores the unbounded default).
func (s *SparkStore) SetBaseContext(ctx context.Context) { s.baseCtx = ctx }

func (s *SparkStore) userByUID(uid int64) (uint64, bool) {
	return s.db.FindObject(s.uidAttr, graph.IntValue(uid))
}

func (s *SparkStore) uidOf(oid uint64) int64 {
	return s.db.GetAttribute(oid, s.uidAttr).Int()
}

// UsersWithFollowersOver implements Q1.1 with a single-predicate Select
// (multi-predicate filters would need client-side set algebra).
func (s *SparkStore) UsersWithFollowersOver(threshold int64) (out []int64, err error) {
	q := s.beginQuery("UsersWithFollowersOver")
	defer func() { q.finish(err, len(out)) }()
	return s.intsOf(s.db.Select(s.followersAttr, sparkdb.Greater, graph.IntValue(threshold)), s.uidAttr), nil
}

// Followees implements Q2.1.
func (s *SparkStore) Followees(uid int64) (out []int64, err error) {
	q := s.beginQuery("Followees")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []int64{}, nil
	}
	return s.intsOf(s.db.Neighbors(a, s.follows, graph.Outgoing), s.uidAttr), nil
}

// intsOf resolves the integer attribute attr of every member of objs in
// one batch and returns the values ascending.
func (s *SparkStore) intsOf(objs *sparkdb.Objects, attr graph.AttrID) []int64 {
	oids := make([]uint64, 0, objs.Count())
	objs.ForEach(func(oid uint64) bool {
		oids = append(oids, oid)
		return true
	})
	out := s.db.GetInts(oids, attr, make([]int64, 0, len(oids)))
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TweetsOfFollowees implements Q2.2: one Neighbors call per followee,
// unioned.
func (s *SparkStore) TweetsOfFollowees(uid int64) (out []int64, err error) {
	q := s.beginQuery("TweetsOfFollowees")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []int64{}, nil
	}
	tweets := sparkdb.NewObjects()
	s.db.Neighbors(a, s.follows, graph.Outgoing).ForEach(func(f uint64) bool {
		tweets.UnionWith(s.db.Neighbors(f, s.posts, graph.Outgoing))
		return true
	})
	return s.intsOf(tweets, s.tidAttr), nil
}

// HashtagsOfFollowees implements Q2.3 (3-step adjacency).
func (s *SparkStore) HashtagsOfFollowees(uid int64) (out []string, err error) {
	q := s.beginQuery("HashtagsOfFollowees")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []string{}, nil
	}
	tagsSet := sparkdb.NewObjects()
	s.db.Neighbors(a, s.follows, graph.Outgoing).ForEach(func(f uint64) bool {
		s.db.Neighbors(f, s.posts, graph.Outgoing).ForEach(func(t uint64) bool {
			tagsSet.UnionWith(s.db.Neighbors(t, s.tags, graph.Outgoing))
			return true
		})
		return true
	})
	out = make([]string, 0, tagsSet.Count())
	tagsSet.ForEach(func(h uint64) bool {
		out = append(out, s.db.GetAttribute(h, s.tagAttr).Str())
		return true
	})
	sort.Strings(out)
	return out, nil
}

// CoMentionedUsers implements Q3.1: the 2-step co-occurrence walk with a
// client-side counting map.
func (s *SparkStore) CoMentionedUsers(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("CoMentionedUsers")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []Counted{}, nil
	}
	if s.mode.gate {
		if res, used, merr := s.coMentionedMatrix(q, a, n); used {
			return res, merr
		}
	}
	// Tweets that mention A — iterated per mention *edge* (Explode),
	// so parallel edges multiply the count exactly as the declarative
	// engine's path counting does. The first-hop edge list is the
	// sharding frontier; each worker counts into a private map.
	mentionsIn := s.db.Explode(a, s.mentions, graph.Incoming).Slice()
	counts, err := s.countSharded(q, mentionsIn, func(e1 uint64, acc map[uint64]int64) {
		t, _, err := s.db.EdgeEndpoints(e1)
		if err != nil {
			return
		}
		// Other users mentioned in those tweets.
		s.db.Explode(t, s.mentions, graph.Outgoing).ForEach(func(e2 uint64) bool {
			_, o, err := s.db.EdgeEndpoints(e2)
			if err == nil && o != a {
				acc[o]++
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return s.topN(counts, n), nil
}

// CoOccurringHashtags implements Q3.2.
func (s *SparkStore) CoOccurringHashtags(tag string, n int) (out []CountedTag, err error) {
	q := s.beginQuery("CoOccurringHashtags")
	defer func() { q.finish(err, len(out)) }()
	h, ok := s.db.FindObject(s.tagAttr, graph.StringValue(tag))
	if !ok {
		return []CountedTag{}, nil
	}
	if s.mode.gate {
		if res, used, merr := s.coOccurringTagsMatrix(q, h, n); used {
			return res, merr
		}
	}
	tagsIn := s.db.Explode(h, s.tags, graph.Incoming).Slice()
	counts, err := s.countSharded(q, tagsIn, func(e1 uint64, acc map[uint64]int64) {
		t, _, err := s.db.EdgeEndpoints(e1)
		if err != nil {
			return
		}
		s.db.Explode(t, s.tags, graph.Outgoing).ForEach(func(e2 uint64) bool {
			_, o, err := s.db.EdgeEndpoints(e2)
			if err == nil && o != h {
				acc[o]++
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	out = make([]CountedTag, 0, len(counts))
	for oid, c := range counts {
		out = append(out, CountedTag{Tag: s.db.GetAttribute(oid, s.tagAttr).Str(), Count: c})
	}
	return firstN(out, n, byCountThenTag), nil
}

// RecommendFollowees implements Q4.1. As the paper notes, "a separate
// neighbours call has to be executed for each 1-step followee of A,
// which makes the execution of this query expensive".
func (s *SparkStore) RecommendFollowees(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFollowees")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []Counted{}, nil
	}
	if s.mode.gate {
		if res, used, merr := s.recommendMatrix(q, a, n, graph.Outgoing); used {
			return res, merr
		}
	}
	direct := s.db.Neighbors(a, s.follows, graph.Outgoing)
	// Per-edge (Explode) at both hops, so the path counts match the
	// declarative engine on multigraphs with parallel follows edges.
	// Workers share the read-only direct set and count into private
	// maps, merged in shard order.
	followEdges := s.db.Explode(a, s.follows, graph.Outgoing).Slice()
	counts, err := s.countSharded(q, followEdges, func(e1 uint64, acc map[uint64]int64) {
		_, f, err := s.db.EdgeEndpoints(e1)
		if err != nil {
			return
		}
		s.db.Explode(f, s.follows, graph.Outgoing).ForEach(func(e2 uint64) bool {
			_, g, err := s.db.EdgeEndpoints(e2)
			if err == nil && g != a && !direct.Contains(g) {
				acc[g]++
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return s.topN(counts, n), nil
}

// RecommendFolloweesTraversal answers Q4.1 through the Traversal class
// instead of raw navigation (the paper's §4 comparison found raw
// neighbors "slightly more efficient").
func (s *SparkStore) RecommendFolloweesTraversal(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFolloweesTraversal")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []Counted{}, nil
	}
	direct := s.db.Neighbors(a, s.follows, graph.Outgoing)
	counts := map[uint64]int64{}
	// The traversal visits each node once, so path counts degenerate
	// to 1 — to preserve result equality the per-followee counting is
	// redone from the traversal's depth-1 set.
	tr := s.db.NewTraversal(a).WithContext(q.ctx).AddEdgeType(s.follows, graph.Outgoing).SetMaximumHops(1)
	visits, err := tr.RunCtx()
	if err != nil {
		return nil, err
	}
	for _, v := range visits {
		// The traversal dedups nodes; weight each depth-1 visit by its
		// parallel-edge multiplicity, then count second hops per edge.
		mult := int64(0)
		s.db.Explode(a, s.follows, graph.Outgoing).ForEach(func(e uint64) bool {
			if _, head, err := s.db.EdgeEndpoints(e); err == nil && head == v.OID {
				mult++
			}
			return true
		})
		s.db.Explode(v.OID, s.follows, graph.Outgoing).ForEach(func(e2 uint64) bool {
			_, g, err := s.db.EdgeEndpoints(e2)
			if err == nil && g != a && !direct.Contains(g) {
				counts[g] += mult
			}
			return true
		})
	}
	return s.topN(counts, n), nil
}

// RecommendFollowersOfFollowees implements Q4.2.
func (s *SparkStore) RecommendFollowersOfFollowees(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFollowersOfFollowees")
	defer func() { q.finish(err, len(out)) }()
	a, ok := s.userByUID(uid)
	if !ok {
		return []Counted{}, nil
	}
	if s.mode.gate {
		if res, used, merr := s.recommendMatrix(q, a, n, graph.Incoming); used {
			return res, merr
		}
	}
	direct := s.db.Neighbors(a, s.follows, graph.Outgoing)
	followEdges := s.db.Explode(a, s.follows, graph.Outgoing).Slice()
	counts, err := s.countSharded(q, followEdges, func(e1 uint64, acc map[uint64]int64) {
		_, f, err := s.db.EdgeEndpoints(e1)
		if err != nil {
			return
		}
		s.db.Explode(f, s.follows, graph.Incoming).ForEach(func(e2 uint64) bool {
			x, _, err := s.db.EdgeEndpoints(e2)
			if err == nil && x != a && !direct.Contains(x) && e1 != e2 {
				acc[x]++
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	return s.topN(counts, n), nil
}

// CurrentInfluence implements Q5.1: count mentioners, then retain those
// already following A (set intersection on the counting map's keys).
func (s *SparkStore) CurrentInfluence(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("CurrentInfluence")
	defer func() { q.finish(err, len(out)) }()
	return s.influence(q, uid, n, true)
}

// PotentialInfluence implements Q5.2: count mentioners, then remove the
// ones already following A.
func (s *SparkStore) PotentialInfluence(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("PotentialInfluence")
	defer func() { q.finish(err, len(out)) }()
	return s.influence(q, uid, n, false)
}

func (s *SparkStore) influence(q *runningQuery, uid int64, n int, keepFollowers bool) ([]Counted, error) {
	a, ok := s.userByUID(uid)
	if !ok {
		return []Counted{}, nil
	}
	if s.mode.gate {
		if res, used, merr := s.influenceMatrix(q, a, n, keepFollowers); used {
			return res, merr
		}
	}
	mentionsIn := s.db.Explode(a, s.mentions, graph.Incoming).Slice()
	counts, err := s.countSharded(q, mentionsIn, func(e1 uint64, acc map[uint64]int64) {
		t, _, err := s.db.EdgeEndpoints(e1)
		if err != nil {
			return
		}
		s.db.Explode(t, s.posts, graph.Incoming).ForEach(func(e2 uint64) bool {
			m, _, err := s.db.EdgeEndpoints(e2)
			if err == nil && m != a {
				acc[m]++
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	followers := s.db.Neighbors(a, s.follows, graph.Incoming)
	for m := range counts {
		if followers.Contains(m) != keepFollowers {
			delete(counts, m)
		}
	}
	return s.topN(counts, n), nil
}

// ShortestPathLength implements Q6.1 via the native shortest-path
// machinery with the paper's 3-hop bound: the classic
// path-materialising BFS. Tuned runs it as the spmat
// direction-optimizing BFS instead; both return the same
// (length, found) pair — a node's BFS level does not depend on
// expansion order.
func (s *SparkStore) ShortestPathLength(fromUID, toUID int64, maxHops int) (length int, found bool, err error) {
	q := s.beginQuery("ShortestPathLength")
	defer func() { q.finish(err, boolRows(found)) }()
	a, ok := s.userByUID(fromUID)
	if !ok {
		return 0, false, nil
	}
	b, ok := s.userByUID(toUID)
	if !ok {
		return 0, false, nil
	}
	if s.mode.gate {
		return s.shortestPathMatrix(q, a, b, maxHops)
	}
	path, found, err := s.db.SinglePairShortestPathBFSCtx(q.ctx, a, b, []graph.TypeID{s.follows}, graph.Outgoing, maxHops)
	if err != nil || !found {
		return 0, false, err
	}
	return len(path) - 1, true, nil
}

// countSharded is par.CountSharded over items, sized by the store's
// mode and bounded by the query context: the context is checked before
// the fan-out, and each shard skips its remaining items once the
// context is done. CheckCtx runs again after the shards return, so an
// abort counts into queries_timed_out or queries_cancelled exactly
// once.
func (s *SparkStore) countSharded(q *runningQuery, items []uint64, visit func(item uint64, acc map[uint64]int64)) (map[uint64]int64, error) {
	if err := s.db.CheckCtx(q.ctx); err != nil {
		return nil, err
	}
	counts := par.CountSharded(s.mode.shards(len(items)), s.parm, items, func(item uint64, acc map[uint64]int64) {
		if q.ctx.Err() == nil {
			visit(item, acc)
		}
	})
	if err := s.db.CheckCtx(q.ctx); err != nil {
		return nil, err
	}
	return counts, nil
}

// topN materialises the counting map and ranks it — the client-side
// ranking Sparksee forces on its users.
func (s *SparkStore) topN(counts map[uint64]int64, n int) []Counted {
	out := make([]Counted, 0, len(counts))
	for oid, c := range counts {
		out = append(out, Counted{ID: s.uidOf(oid), Count: c})
	}
	return firstN(out, n, byCountThenID)
}

// ---------- update workload ----------

// AddUser implements UpdateStore.
func (s *SparkStore) AddUser(uid int64, screenName string) (err error) {
	q := s.beginQuery("AddUser")
	defer func() { q.finish(err, 0) }()
	oid, err := s.db.NewNode(s.user)
	if err != nil {
		return err
	}
	if err := s.db.SetAttribute(oid, s.uidAttr, graph.IntValue(uid)); err != nil {
		return err
	}
	if s.screenAttr != graph.NilAttr {
		if err := s.db.SetAttribute(oid, s.screenAttr, graph.StringValue(screenName)); err != nil {
			return err
		}
	}
	if s.followersAttr != graph.NilAttr {
		return s.db.SetAttribute(oid, s.followersAttr, graph.IntValue(0))
	}
	return nil
}

// AddFollow implements UpdateStore.
func (s *SparkStore) AddFollow(srcUID, dstUID int64) (err error) {
	q := s.beginQuery("AddFollow")
	defer func() { q.finish(err, 0) }()
	src, ok := s.userByUID(srcUID)
	if !ok {
		return fmt.Errorf("twitter: unknown user %d", srcUID)
	}
	dst, ok := s.userByUID(dstUID)
	if !ok {
		return fmt.Errorf("twitter: unknown user %d", dstUID)
	}
	_, err = s.db.NewEdge(s.follows, src, dst)
	return err
}

// AddTweet implements UpdateStore.
func (s *SparkStore) AddTweet(uid, tid int64, text string, mentionUIDs []int64, tagTexts []string) (err error) {
	q := s.beginQuery("AddTweet")
	defer func() { q.finish(err, 0) }()
	author, ok := s.userByUID(uid)
	if !ok {
		return fmt.Errorf("twitter: unknown user %d", uid)
	}
	t, err := s.db.NewNode(s.tweet)
	if err != nil {
		return err
	}
	if err := s.db.SetAttribute(t, s.tidAttr, graph.IntValue(tid)); err != nil {
		return err
	}
	if s.textAttr != graph.NilAttr {
		if err := s.db.SetAttribute(t, s.textAttr, graph.StringValue(text)); err != nil {
			return err
		}
	}
	if _, err := s.db.NewEdge(s.posts, author, t); err != nil {
		return err
	}
	for _, m := range mentionUIDs {
		target, ok := s.userByUID(m)
		if !ok {
			continue
		}
		if _, err := s.db.NewEdge(s.mentions, t, target); err != nil {
			return err
		}
	}
	for _, tg := range tagTexts {
		h, ok := s.db.FindObject(s.tagAttr, graph.StringValue(tg))
		if !ok {
			h, err = s.db.NewNode(s.hashtag)
			if err != nil {
				return err
			}
			if err := s.db.SetAttribute(h, s.hidAttr, graph.IntValue(tid+1_000_000_000)); err != nil {
				return err
			}
			if err := s.db.SetAttribute(h, s.tagAttr, graph.StringValue(tg)); err != nil {
				return err
			}
		}
		if _, err := s.db.NewEdge(s.tags, t, h); err != nil {
			return err
		}
	}
	return nil
}
