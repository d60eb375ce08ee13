package twitter

import "fmt"

// Query is one entry of the workload: a Table 2 read or an update. It
// is the one definition every consumer reads — the serving layer
// dispatches RUN through it, the driver's retry gate asks it for
// idempotence, and the Table 2 experiment runs it on both engines.
type Query struct {
	ID         string   // Table 2 id ("Q1.1"); updates are "U1"–"U3"
	Wire       string   // the serving layer's query name
	Category   string   // Table 2 category
	Starred    bool     // discussed in detail by the paper (★ in Table 2)
	Fields     []string // result columns
	Idempotent bool     // a read: safe to retry after a transport fault
	// Run executes the query on s and shapes its result into rows.
	Run func(s Store, p Params) ([][]any, error)
}

// Params are a query's named parameters as the wire carries them:
// int64, string, []int64 or []string values. The accessors validate, so
// a missing or mistyped parameter fails the query, never panics.
type Params map[string]any

func (p Params) int(name string) (int64, error) {
	v, ok := p[name].(int64)
	if !ok {
		return 0, fmt.Errorf("twitter: parameter %q missing or not an int", name)
	}
	return v, nil
}

func (p Params) str(name string) (string, error) {
	v, ok := p[name].(string)
	if !ok {
		return "", fmt.Errorf("twitter: parameter %q missing or not a string", name)
	}
	return v, nil
}

// optInt reads an optional positive int parameter, def when absent.
func (p Params) optInt(name string, def int) int {
	if v, ok := p[name].(int64); ok && v > 0 {
		return int(v)
	}
	return def
}

// topN reads the result budget of the top-n queries (the paper's n,
// default 10).
func (p Params) topN() int { return p.optInt("n", 10) }

func idRows(ids []int64, err error) ([][]any, error) {
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(ids))
	for i, id := range ids {
		rows[i] = []any{id}
	}
	return rows, nil
}

func countedRows(cs []Counted, err error) ([][]any, error) {
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(cs))
	for i, c := range cs {
		rows[i] = []any{c.ID, c.Count}
	}
	return rows, nil
}

func uidQuery(f func(Store, int64) ([]int64, error)) func(Store, Params) ([][]any, error) {
	return func(s Store, p Params) ([][]any, error) {
		uid, err := p.int("uid")
		if err != nil {
			return nil, err
		}
		return idRows(f(s, uid))
	}
}

func topNQuery(f func(Store, int64, int) ([]Counted, error)) func(Store, Params) ([][]any, error) {
	return func(s Store, p Params) ([][]any, error) {
		uid, err := p.int("uid")
		if err != nil {
			return nil, err
		}
		return countedRows(f(s, uid, p.topN()))
	}
}

// update wraps a write: it asserts the engine accepts updates, then
// applies f, which returns no rows.
func update(f func(UpdateStore, Params) error) func(Store, Params) ([][]any, error) {
	return func(s Store, p Params) ([][]any, error) {
		us, ok := s.(UpdateStore)
		if !ok {
			return nil, fmt.Errorf("twitter: engine %q does not accept updates", s.Name())
		}
		return nil, f(us, p)
	}
}

// Queries is the workload: Table 2's eleven reads in the paper's order,
// then the three updates.
var Queries = []Query{
	{ID: "Q1.1", Wire: "users_over", Category: "Select",
		Fields: []string{"uid"}, Idempotent: true,
		Run: func(s Store, p Params) ([][]any, error) {
			th, err := p.int("threshold")
			if err != nil {
				return nil, err
			}
			return idRows(s.UsersWithFollowersOver(th))
		}},
	{ID: "Q2.1", Wire: "followees", Category: "Adjacency (1-step)",
		Fields: []string{"uid"}, Idempotent: true,
		Run: uidQuery(Store.Followees)},
	{ID: "Q2.2", Wire: "tweets_of_followees", Category: "Adjacency (2-step)",
		Fields: []string{"tid"}, Idempotent: true,
		Run: uidQuery(Store.TweetsOfFollowees)},
	{ID: "Q2.3", Wire: "hashtags_of_followees", Category: "Adjacency (3-step)", Starred: true,
		Fields: []string{"tag"}, Idempotent: true,
		Run: func(s Store, p Params) ([][]any, error) {
			uid, err := p.int("uid")
			if err != nil {
				return nil, err
			}
			tags, err := s.HashtagsOfFollowees(uid)
			if err != nil {
				return nil, err
			}
			rows := make([][]any, len(tags))
			for i, t := range tags {
				rows[i] = []any{t}
			}
			return rows, nil
		}},
	{ID: "Q3.1", Wire: "co_mentioned", Category: "Co-occurrence",
		Fields: []string{"uid", "count"}, Idempotent: true,
		Run: topNQuery(Store.CoMentionedUsers)},
	{ID: "Q3.2", Wire: "co_tags", Category: "Co-occurrence", Starred: true,
		Fields: []string{"tag", "count"}, Idempotent: true,
		Run: func(s Store, p Params) ([][]any, error) {
			tag, err := p.str("tag")
			if err != nil {
				return nil, err
			}
			cs, err := s.CoOccurringHashtags(tag, p.topN())
			if err != nil {
				return nil, err
			}
			rows := make([][]any, len(cs))
			for i, c := range cs {
				rows[i] = []any{c.Tag, c.Count}
			}
			return rows, nil
		}},
	{ID: "Q4.1", Wire: "recommend_followees", Category: "Recommendation",
		Fields: []string{"uid", "count"}, Idempotent: true,
		Run: topNQuery(Store.RecommendFollowees)},
	{ID: "Q4.2", Wire: "recommend_followers", Category: "Recommendation",
		Fields: []string{"uid", "count"}, Idempotent: true,
		Run: topNQuery(Store.RecommendFollowersOfFollowees)},
	{ID: "Q5.1", Wire: "influence_current", Category: "Influence (current)", Starred: true,
		Fields: []string{"uid", "count"}, Idempotent: true,
		Run: topNQuery(Store.CurrentInfluence)},
	{ID: "Q5.2", Wire: "influence_potential", Category: "Influence (potential)", Starred: true,
		Fields: []string{"uid", "count"}, Idempotent: true,
		Run: topNQuery(Store.PotentialInfluence)},
	// One row on a hit, none on a miss.
	{ID: "Q6.1", Wire: "shortest_path", Category: "Shortest Path",
		Fields: []string{"length"}, Idempotent: true,
		Run: func(s Store, p Params) ([][]any, error) {
			a, err := p.int("uid")
			if err != nil {
				return nil, err
			}
			b, err := p.int("uid2")
			if err != nil {
				return nil, err
			}
			length, found, err := s.ShortestPathLength(a, b, p.optInt("max_hops", 3))
			if err != nil {
				return nil, err
			}
			if !found {
				return [][]any{}, nil
			}
			return [][]any{{int64(length)}}, nil
		}},

	{ID: "U1", Wire: "add_user", Category: "Update", Fields: []string{},
		Run: update(func(us UpdateStore, p Params) error {
			uid, err := p.int("uid")
			if err != nil {
				return err
			}
			name, err := p.str("screen_name")
			if err != nil {
				return err
			}
			return us.AddUser(uid, name)
		})},
	{ID: "U2", Wire: "add_follow", Category: "Update", Fields: []string{},
		Run: update(func(us UpdateStore, p Params) error {
			src, err := p.int("uid")
			if err != nil {
				return err
			}
			dst, err := p.int("uid2")
			if err != nil {
				return err
			}
			return us.AddFollow(src, dst)
		})},
	// text, mentions and tags are optional.
	{ID: "U3", Wire: "add_tweet", Category: "Update", Fields: []string{},
		Run: update(func(us UpdateStore, p Params) error {
			uid, err := p.int("uid")
			if err != nil {
				return err
			}
			tid, err := p.int("tid")
			if err != nil {
				return err
			}
			text, _ := p["text"].(string)
			mentions, _ := p["mentions"].([]int64)
			tags, _ := p["tags"].([]string)
			return us.AddTweet(uid, tid, text, mentions, tags)
		})},
}

var queriesByWire = func() map[string]*Query {
	m := make(map[string]*Query, len(Queries))
	for i := range Queries {
		m[Queries[i].Wire] = &Queries[i]
	}
	return m
}()

// LookupQuery returns the query with the given wire name.
func LookupQuery(wire string) (*Query, bool) {
	q, ok := queriesByWire[wire]
	return q, ok
}
