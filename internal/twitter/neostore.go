package twitter

import (
	"context"
	"fmt"
	"time"

	"twigraph/internal/cypher"
	"twigraph/internal/graph"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/par"
	"twigraph/internal/spmat"
)

// NeoStore implements the workload on the Neo4j-analog engine through
// its declarative query language, the way the paper's authors ran it.
// All queries are parameterised so their plans stay in the plan cache.
//
// The paper's §5 influence definitions conflict between "followees" in
// Table 2 and "followers" in the prose; this implementation follows the
// prose: current influence = mentioners who already follow A, potential
// influence = mentioners who do not.
type NeoStore struct {
	db     *neodb.DB
	engine *cypher.Engine

	mode     execMode        // what the profile resolves to (Tuned by default)
	timeout  time.Duration   // per-query deadline; 0 = unbounded
	baseCtx  context.Context // parent of every query ctx; nil = Background
	parm     par.Metrics     // shard/merge counters on the engine registry
	qLatency *obs.Histogram  // per-query wall time, all workload methods
	spm      *spmat.Metrics  // plan-choice and kernel-round counters
	accPool  spmat.AccumPool
}

// QueryLatencyHist is the registry histogram every workload query
// observes its wall time into, on both engines — the series the
// telemetry /metrics endpoint exports as
// twigraph_<engine>_query_latency_seconds.
const QueryLatencyHist = "query_latency"

// NewNeoStore wraps an opened neodb database, running the Tuned
// profile.
func NewNeoStore(db *neodb.DB) *NeoStore {
	s := &NeoStore{
		db:       db,
		engine:   cypher.NewEngine(db),
		mode:     profileMode(spmat.Tuned),
		parm:     par.MetricsFrom(db.Obs()),
		qLatency: db.Obs().Histogram(QueryLatencyHist),
	}
	// Shard executions of the parallel workload paths land on the
	// engine's timeline next to its spans.
	s.parm.Trace = db.Trace()
	s.spm = spmat.MetricsFrom(db.Obs())
	return s
}

// beginQuery opens attribution for one workload method: the duration
// lands in the query_latency histogram and the per-fingerprint
// statistics registry, and when the tracer is enabled the query runs
// under a store-level span carrying the query ID — so the imperative
// parallel paths (which bypass the Cypher executor and its spans) still
// show up in the slow log and exported timelines. Use with named
// returns as `q := s.beginQuery("Name"); defer func() { q.finish(err,
// len(out)) }()`; thread q.ctx into the execution so the engine reuses
// the query ID instead of double counting.
func (s *NeoStore) beginQuery(name string) *runningQuery {
	return beginStoreQuery("neo: "+name, s.db.Tracer(), s.db.QueryStats(), s.qLatency, s.baseCtx, s.timeout)
}

// SetBaseContext parents every subsequent query context on ctx, so an
// external cancellation (a dropped network session, a server drain)
// aborts in-flight queries through the same context plumbing as a
// store-level timeout. Not synchronised: like SetQueryTimeout it is
// meant for a store handle owned by one goroutine — the serving layer
// gives each session its own NewNeoStore over the shared DB. A nil ctx
// restores the unbounded default.
func (s *NeoStore) SetBaseContext(ctx context.Context) { s.baseCtx = ctx }

// Name implements Store.
func (s *NeoStore) Name() string { return "neo" }

// SetProfile selects how the multi-hop queries (Q3.1–Q6.1) execute.
// Faithful runs their Cypher text, one query at a time, as the paper
// did. Tuned sends dense hops to the spmat kernels
// (neostore_matrix.go) and sparse ones to frontier-sharded imperative
// restatements (neostore_parallel.go), or to Cypher on one CPU. Every
// profile returns byte-identical results. Not synchronised, like
// SetQueryTimeout.
func (s *NeoStore) SetProfile(p spmat.Profile) {
	s.mode = profileMode(p)
	s.engine.SetProfile(p)
}

// SetQueryTimeout bounds every subsequent query by d. Queries that run
// past the deadline abort with a context error and count into the
// engine's queries_timed_out counter; d <= 0 removes the bound.
func (s *NeoStore) SetQueryTimeout(d time.Duration) { s.timeout = d }

// QueryTimeout returns the configured per-query deadline (0 =
// unbounded).
func (s *NeoStore) QueryTimeout() time.Duration { return s.timeout }

// queryCtx returns the context bounding one query (nil when no timeout
// is configured) and its cancel func.
func (s *NeoStore) queryCtx() (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return nil, func() {}
	}
	return context.WithTimeout(context.Background(), s.timeout)
}

// query runs one declarative query under ctx (a beginQuery tracking
// context, or a bare queryCtx deadline for untracked helpers).
func (s *NeoStore) query(ctx context.Context, q string, p map[string]graph.Value) (*cypher.Result, error) {
	return s.engine.QueryCtx(ctx, q, p)
}

// Close implements Store.
func (s *NeoStore) Close() error { return s.db.Close() }

// DB exposes the underlying engine for benchmarks that manipulate the
// page cache or plan cache.
func (s *NeoStore) DB() *neodb.DB { return s.db }

// Engine exposes the query engine (plan-cache ablations).
func (s *NeoStore) Engine() *cypher.Engine { return s.engine }

// Obs exposes the engine's observability registry (bench snapshots).
func (s *NeoStore) Obs() *obs.Registry { return s.db.Obs() }

// Tracer exposes the engine's query tracer.
func (s *NeoStore) Tracer() *obs.Tracer { return s.db.Tracer() }

// ResetCounters zeroes the engine's observability counters.
func (s *NeoStore) ResetCounters() { s.db.ResetCounters() }

func params(kv ...any) map[string]graph.Value {
	m := make(map[string]graph.Value, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		name := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int64:
			m[name] = graph.IntValue(v)
		case int:
			m[name] = graph.IntValue(int64(v))
		case string:
			m[name] = graph.StringValue(v)
		case graph.Value:
			m[name] = v
		default:
			panic(fmt.Sprintf("unsupported param %T", v))
		}
	}
	return m
}

func (s *NeoStore) queryInts(ctx context.Context, q string, p map[string]graph.Value) ([]int64, error) {
	res, err := s.query(ctx, q, p)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		v, ok := r[0].(graph.Value)
		if !ok {
			return nil, fmt.Errorf("twitter: non-scalar cell %T", r[0])
		}
		out = append(out, v.Int())
	}
	return out, nil
}

func (s *NeoStore) queryCounted(ctx context.Context, q string, p map[string]graph.Value) ([]Counted, error) {
	res, err := s.query(ctx, q, p)
	if err != nil {
		return nil, err
	}
	out := make([]Counted, 0, len(res.Rows))
	for _, r := range res.Rows {
		id := r[0].(graph.Value).Int()
		c := r[1].(graph.Value).Int()
		out = append(out, Counted{ID: id, Count: c})
	}
	return out, nil
}

// UsersWithFollowersOver implements Q1.1.
func (s *NeoStore) UsersWithFollowersOver(threshold int64) (out []int64, err error) {
	q := s.beginQuery("UsersWithFollowersOver")
	defer func() { q.finish(err, len(out)) }()
	return s.queryInts(q.ctx,
		`MATCH (u:user) WHERE u.followers > $th RETURN u.uid AS uid ORDER BY uid`,
		params("th", threshold))
}

// Followees implements Q2.1.
func (s *NeoStore) Followees(uid int64) (out []int64, err error) {
	q := s.beginQuery("Followees")
	defer func() { q.finish(err, len(out)) }()
	return s.queryInts(q.ctx,
		`MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN DISTINCT f.uid AS uid ORDER BY uid`,
		params("uid", uid))
}

// TweetsOfFollowees implements Q2.2.
func (s *NeoStore) TweetsOfFollowees(uid int64) (out []int64, err error) {
	q := s.beginQuery("TweetsOfFollowees")
	defer func() { q.finish(err, len(out)) }()
	return s.queryInts(q.ctx,
		`MATCH (a:user {uid: $uid})-[:follows]->(:user)-[:posts]->(t:tweet)
		 RETURN DISTINCT t.tid AS tid ORDER BY tid`,
		params("uid", uid))
}

// HashtagsOfFollowees implements Q2.3.
func (s *NeoStore) HashtagsOfFollowees(uid int64) (out []string, err error) {
	q := s.beginQuery("HashtagsOfFollowees")
	defer func() { q.finish(err, len(out)) }()
	res, err := s.query(q.ctx,
		`MATCH (a:user {uid: $uid})-[:follows]->(:user)-[:posts]->(:tweet)-[:tags]->(h:hashtag)
		 RETURN DISTINCT h.tag AS tag ORDER BY tag`,
		params("uid", uid))
	if err != nil {
		return nil, err
	}
	out = make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].(graph.Value).Str())
	}
	return out, nil
}

// CoMentionedUsers implements Q3.1.
func (s *NeoStore) CoMentionedUsers(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("CoMentionedUsers")
	defer func() { q.finish(err, len(out)) }()
	if s.mode.gate {
		if res, used, merr := s.coMentionedMatrix(q, uid, n); used {
			return res, merr
		}
	}
	if s.mode.workers > 1 {
		return s.coMentionedParallel(q, uid, n)
	}
	return s.queryCounted(q.ctx,
		`MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(o:user)
		 WHERE o.uid <> $uid
		 RETURN o.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`,
		params("uid", uid, "n", n))
}

// CoOccurringHashtags implements Q3.2.
func (s *NeoStore) CoOccurringHashtags(tag string, n int) (out []CountedTag, err error) {
	q := s.beginQuery("CoOccurringHashtags")
	defer func() { q.finish(err, len(out)) }()
	if s.mode.gate {
		if res, used, merr := s.coOccurringTagsMatrix(q, tag, n); used {
			return res, merr
		}
	}
	if s.mode.workers > 1 {
		return s.coOccurringTagsParallel(q, tag, n)
	}
	res, err := s.query(q.ctx,
		`MATCH (h:hashtag {tag: $tag})<-[:tags]-(t:tweet)-[:tags]->(o:hashtag)
		 WHERE o.tag <> $tag
		 RETURN o.tag AS tag, count(*) AS c ORDER BY c DESC, tag LIMIT $n`,
		params("tag", tag, "n", n))
	if err != nil {
		return nil, err
	}
	out = make([]CountedTag, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, CountedTag{Tag: r[0].(graph.Value).Str(), Count: r[1].(graph.Value).Int()})
	}
	return out, nil
}

// RecommendFollowees implements Q4.1 using the paper's method (b) —
// collect the 1-step followees, then check depth-2 candidates against
// the collection — which the authors found fastest.
func (s *NeoStore) RecommendFollowees(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFollowees")
	defer func() { q.finish(err, len(out)) }()
	if s.mode.gate {
		if res, used, merr := s.recommendMatrix(q, uid, n, graph.Outgoing); used {
			return res, merr
		}
	}
	if s.mode.workers > 1 {
		return s.recommendParallel(q, uid, n, graph.Outgoing)
	}
	return s.queryCounted(q.ctx, QueryRecommendMethodB, params("uid", uid, "n", n))
}

// The three Cypher phrasings of the recommendation query (§4,
// "Alternate Solutions"); all return identical results, at different
// cost. Exported so the ablation benchmark can compare them.
const (
	// QueryRecommendMethodA goes through follows with a fixed depth-2
	// variable-length expansion.
	QueryRecommendMethodA = `
		MATCH (a:user {uid: $uid})-[:follows*2..2]->(f:user)
		WHERE NOT (a)-[:follows]->(f) AND f.uid <> $uid
		RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`

	// QueryRecommendMethodB collects intermediate results and checks
	// depth-2 candidates against them.
	QueryRecommendMethodB = `
		MATCH (a:user {uid: $uid})-[:follows]->(f1:user)
		WITH a, collect(f1) AS direct
		MATCH (a)-[:follows]->(:user)-[:follows]->(f2:user)
		WHERE NOT f2 IN direct AND f2.uid <> $uid
		RETURN f2.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`

	// QueryRecommendMethodC expands follows to depth 1..2 and removes
	// the depth-1 friends afterwards.
	QueryRecommendMethodC = `
		MATCH (a:user {uid: $uid})-[:follows*1..2]->(f:user)
		WITH a, f
		WHERE NOT (a)-[:follows]->(f) AND f.uid <> $uid
		RETURN f.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`
)

// RecommendFolloweesMethod runs one of the three phrasings ("a", "b",
// "c") for the ablation benchmark.
func (s *NeoStore) RecommendFolloweesMethod(method string, uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFolloweesMethod")
	defer func() { q.finish(err, len(out)) }()
	var text string
	switch method {
	case "a":
		text = QueryRecommendMethodA
	case "b":
		text = QueryRecommendMethodB
	case "c":
		text = QueryRecommendMethodC
	default:
		return nil, fmt.Errorf("twitter: unknown method %q", method)
	}
	return s.queryCounted(q.ctx, text, params("uid", uid, "n", n))
}

// RecommendFolloweesTraversal answers Q4.1 through the imperative
// traversal framework instead of the declarative layer — the "core API"
// rewrite the paper found slightly faster but harder to express.
func (s *NeoStore) RecommendFolloweesTraversal(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFolloweesTraversal")
	defer func() { q.finish(err, len(out)) }()
	user := s.db.LabelID(LabelUser)
	uidKey := s.db.PropKeyID(PropUID)
	follows := s.db.RelTypeID(RelFollows)
	a, ok := s.db.FindNode(user, uidKey, graph.IntValue(uid))
	if !ok {
		return []Counted{}, nil
	}
	// Direct followees, to exclude.
	direct := map[graph.NodeID]bool{a: true}
	if err := s.db.Relationships(a, follows, graph.Outgoing, func(r neodb.Rel) bool {
		direct[r.Dst] = true
		return true
	}); err != nil {
		return nil, err
	}
	counts := map[graph.NodeID]int64{}
	td := s.db.NewTraversal().
		WithContext(q.ctx).
		Expand(follows, graph.Outgoing).
		Depths(2, 2).
		Uniqueness(neodb.NoneUnique)
	if err := td.Traverse(a, func(p neodb.Path) bool {
		end := p.End()
		if !direct[end] {
			counts[end]++
		}
		return true
	}); err != nil {
		return nil, err
	}
	rd, done := s.reader()
	defer done()
	return rankNodes(rd, countsOf(counts), uidKey, n, countedUID, byCountThenID)
}

// RecommendFollowersOfFollowees implements Q4.2.
func (s *NeoStore) RecommendFollowersOfFollowees(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("RecommendFollowersOfFollowees")
	defer func() { q.finish(err, len(out)) }()
	if s.mode.gate {
		if res, used, merr := s.recommendMatrix(q, uid, n, graph.Incoming); used {
			return res, merr
		}
	}
	if s.mode.workers > 1 {
		return s.recommendParallel(q, uid, n, graph.Incoming)
	}
	return s.queryCounted(q.ctx,
		`MATCH (a:user {uid: $uid})-[:follows]->(f:user)<-[:follows]-(x:user)
		 WHERE x.uid <> $uid AND NOT (a)-[:follows]->(x)
		 RETURN x.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`,
		params("uid", uid, "n", n))
}

// CurrentInfluence implements Q5.1.
func (s *NeoStore) CurrentInfluence(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("CurrentInfluence")
	defer func() { q.finish(err, len(out)) }()
	if s.mode.gate {
		if res, used, merr := s.influenceMatrix(q, uid, n, true); used {
			return res, merr
		}
	}
	if s.mode.workers > 1 {
		return s.influenceParallel(q, uid, n, true)
	}
	return s.queryCounted(q.ctx,
		`MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)<-[:posts]-(m:user)
		 WHERE m.uid <> $uid AND (m)-[:follows]->(a)
		 RETURN m.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`,
		params("uid", uid, "n", n))
}

// PotentialInfluence implements Q5.2.
func (s *NeoStore) PotentialInfluence(uid int64, n int) (out []Counted, err error) {
	q := s.beginQuery("PotentialInfluence")
	defer func() { q.finish(err, len(out)) }()
	if s.mode.gate {
		if res, used, merr := s.influenceMatrix(q, uid, n, false); used {
			return res, merr
		}
	}
	if s.mode.workers > 1 {
		return s.influenceParallel(q, uid, n, false)
	}
	return s.queryCounted(q.ctx,
		`MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)<-[:posts]-(m:user)
		 WHERE m.uid <> $uid AND NOT (m)-[:follows]->(a)
		 RETURN m.uid AS id, count(*) AS c ORDER BY c DESC, id LIMIT $n`,
		params("uid", uid, "n", n))
}

// ShortestPathLength implements Q6.1 via the Cypher shortestPath
// function with the paper's hop bound. Tuned runs it as the spmat
// direction-optimizing BFS instead, returning the identical
// (length, found) pair.
func (s *NeoStore) ShortestPathLength(fromUID, toUID int64, maxHops int) (length int, found bool, err error) {
	q := s.beginQuery("ShortestPathLength")
	defer func() { q.finish(err, boolRows(found)) }()
	if s.mode.gate {
		return s.shortestPathMatrix(q, fromUID, toUID, maxHops)
	}
	res, err := s.query(q.ctx, fmt.Sprintf(
		`MATCH (a:user {uid: $a}), (b:user {uid: $b}),
		        p = shortestPath((a)-[:follows*..%d]->(b))
		 RETURN length(p)`, maxHops),
		params("a", fromUID, "b", toUID))
	if err != nil {
		return 0, false, err
	}
	if len(res.Rows) == 0 {
		return 0, false, nil
	}
	return int(res.Rows[0][0].(graph.Value).Int()), true, nil
}

// boolRows maps a found/not-found result onto a row count for query
// statistics (Cypher returns one row on a hit, none on a miss).
func boolRows(found bool) int {
	if found {
		return 1
	}
	return 0
}

// ---------- update workload ----------

// AddUser implements UpdateStore.
func (s *NeoStore) AddUser(uid int64, screenName string) (err error) {
	q := s.beginQuery("AddUser")
	defer func() { q.finish(err, 0) }()
	tx := s.db.Begin()
	tx.CreateNode(s.db.Label(LabelUser), graph.Properties{
		PropUID:        graph.IntValue(uid),
		PropScreenName: graph.StringValue(screenName),
		PropFollowers:  graph.IntValue(0),
	})
	return tx.Commit()
}

// AddFollow implements UpdateStore.
func (s *NeoStore) AddFollow(srcUID, dstUID int64) (err error) {
	q := s.beginQuery("AddFollow")
	defer func() { q.finish(err, 0) }()
	src, dst, err := s.twoUsers(srcUID, dstUID)
	if err != nil {
		return err
	}
	tx := s.db.Begin()
	tx.CreateRel(s.db.RelType(RelFollows), src, dst)
	return tx.Commit()
}

// AddTweet implements UpdateStore.
func (s *NeoStore) AddTweet(uid, tid int64, text string, mentionUIDs []int64, tagTexts []string) (err error) {
	q := s.beginQuery("AddTweet")
	defer func() { q.finish(err, 0) }()
	user := s.db.LabelID(LabelUser)
	uidKey := s.db.PropKeyID(PropUID)
	author, ok := s.db.FindNode(user, uidKey, graph.IntValue(uid))
	if !ok {
		return fmt.Errorf("twitter: unknown user %d", uid)
	}
	tx := s.db.Begin()
	tweet := tx.CreateNode(s.db.Label(LabelTweet), graph.Properties{
		PropTID:  graph.IntValue(tid),
		PropText: graph.StringValue(text),
	})
	tx.CreateRel(s.db.RelType(RelPosts), author, tweet)
	for _, m := range mentionUIDs {
		target, ok := s.db.FindNode(user, uidKey, graph.IntValue(m))
		if !ok {
			continue
		}
		tx.CreateRel(s.db.RelType(RelMentions), tweet, target)
	}
	hashtag := s.db.Label(LabelHashtag)
	tagKey := s.db.PropKey(PropTag)
	for _, tg := range tagTexts {
		h, ok := s.db.FindNode(hashtag, tagKey, graph.StringValue(tg))
		if !ok {
			// New hashtags get a synthetic hid derived from the node
			// count; the external dataset never collides with it.
			h = tx.CreateNode(hashtag, graph.Properties{
				PropHID: graph.IntValue(int64(s.db.NodeCount()) + tid + 1_000_000_000),
				PropTag: graph.StringValue(tg),
			})
		}
		tx.CreateRel(s.db.RelType(RelTags), tweet, h)
	}
	return tx.Commit()
}

func (s *NeoStore) twoUsers(a, b int64) (graph.NodeID, graph.NodeID, error) {
	user := s.db.LabelID(LabelUser)
	uidKey := s.db.PropKeyID(PropUID)
	src, ok := s.db.FindNode(user, uidKey, graph.IntValue(a))
	if !ok {
		return 0, 0, fmt.Errorf("twitter: unknown user %d", a)
	}
	dst, ok := s.db.FindNode(user, uidKey, graph.IntValue(b))
	if !ok {
		return 0, 0, fmt.Errorf("twitter: unknown user %d", b)
	}
	return src, dst, nil
}
