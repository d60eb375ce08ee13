package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"

	"twigraph/internal/twitter"
)

// topN is the result budget of every top-n query, the paper's n.
const topN = 10

// query is one Table 2 query as the benchmark issues it: embedded, by a
// call on twitter.Store, or served, by its catalogue name. Embedded
// results are shaped into the rows the serving layer returns, so one
// digest compares both paths.
type query struct {
	id   string // Table 2 id
	wire string // serve catalogue name
	call func(s twitter.Store, o *op) ([][]any, error)
}

// op is one query with its parameters.
type op struct {
	q         *query
	idx       int // position in the workload's op list (oracle key)
	uid, uid2 int64
	tag       string
	threshold int64
}

// params renders the op as RUN parameters for the serve catalogue.
func (o *op) params() map[string]any {
	switch o.q.id {
	case "Q1.1":
		return map[string]any{"threshold": o.threshold}
	case "Q3.2":
		return map[string]any{"tag": o.tag, "n": int64(topN)}
	case "Q6.1":
		return map[string]any{"uid": o.uid, "uid2": o.uid2, "max_hops": int64(3)}
	}
	return map[string]any{"uid": o.uid, "n": int64(topN)}
}

var (
	q11 = &query{"Q1.1", "users_over", func(s twitter.Store, o *op) ([][]any, error) {
		return idRows(s.UsersWithFollowersOver(o.threshold))
	}}
	q21 = &query{"Q2.1", "followees", func(s twitter.Store, o *op) ([][]any, error) {
		return idRows(s.Followees(o.uid))
	}}
	q22 = &query{"Q2.2", "tweets_of_followees", func(s twitter.Store, o *op) ([][]any, error) {
		return idRows(s.TweetsOfFollowees(o.uid))
	}}
	q23 = &query{"Q2.3", "hashtags_of_followees", func(s twitter.Store, o *op) ([][]any, error) {
		tags, err := s.HashtagsOfFollowees(o.uid)
		rows := make([][]any, len(tags))
		for i, t := range tags {
			rows[i] = []any{t}
		}
		return rows, err
	}}
	q31 = &query{"Q3.1", "co_mentioned", func(s twitter.Store, o *op) ([][]any, error) {
		return countedRows(s.CoMentionedUsers(o.uid, topN))
	}}
	q32 = &query{"Q3.2", "co_tags", func(s twitter.Store, o *op) ([][]any, error) {
		tags, err := s.CoOccurringHashtags(o.tag, topN)
		rows := make([][]any, len(tags))
		for i, t := range tags {
			rows[i] = []any{t.Tag, t.Count}
		}
		return rows, err
	}}
	q41 = &query{"Q4.1", "recommend_followees", func(s twitter.Store, o *op) ([][]any, error) {
		return countedRows(s.RecommendFollowees(o.uid, topN))
	}}
	q42 = &query{"Q4.2", "recommend_followers", func(s twitter.Store, o *op) ([][]any, error) {
		return countedRows(s.RecommendFollowersOfFollowees(o.uid, topN))
	}}
	q51 = &query{"Q5.1", "influence_current", func(s twitter.Store, o *op) ([][]any, error) {
		return countedRows(s.CurrentInfluence(o.uid, topN))
	}}
	q52 = &query{"Q5.2", "influence_potential", func(s twitter.Store, o *op) ([][]any, error) {
		return countedRows(s.PotentialInfluence(o.uid, topN))
	}}
	q61 = &query{"Q6.1", "shortest_path", func(s twitter.Store, o *op) ([][]any, error) {
		length, found, err := s.ShortestPathLength(o.uid, o.uid2, 3)
		if err != nil || !found {
			return nil, err
		}
		return [][]any{{int64(length)}}, nil
	}}

	// table2 is the analytic mix, in the paper's order.
	table2 = []*query{q11, q21, q22, q23, q31, q32, q41, q42, q51, q52, q61}
	// pointReads is the served mix: reads whose engine work is tens of
	// microseconds, so the wire layers dominate.
	pointReads = []*query{q21, q23, q31, q51}
	// timelineReads are issued for the acting user after each feed event.
	timelineReads = []*query{q21, q22}
)

// applyID labels the feed's write calls in per-query metrics.
const applyID = "apply"

func idRows(ids []int64, err error) ([][]any, error) {
	rows := make([][]any, len(ids))
	for i, id := range ids {
		rows[i] = []any{id}
	}
	return rows, err
}

func countedRows(cs []twitter.Counted, err error) ([][]any, error) {
	rows := make([][]any, len(cs))
	for i, c := range cs {
		rows[i] = []any{c.ID, c.Count}
	}
	return rows, err
}

// digest is an order-normalised hash of a result: each row is rendered
// as text, the rows are sorted, and the sorted list is hashed, so two
// engines (or the embedded and served paths) agree whenever they return
// the same multiset of rows.
func digest(rows [][]any) uint64 {
	lines := make([]string, len(rows))
	var b strings.Builder
	for i, r := range rows {
		b.Reset()
		for j, c := range r {
			if j > 0 {
				b.WriteByte(0x1f)
			}
			fmt.Fprint(&b, c)
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// readFollowers returns each user's follower count (index uid-1) from
// the generated users.csv.
func readFollowers(path string, users int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]int, users)
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s: short row %q", path, sc.Text())
		}
		uid, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			return nil, err
		}
		if uid >= 1 && uid <= users {
			out[uid-1] = n
		}
	}
	return out, sc.Err()
}
