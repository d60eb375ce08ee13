package twitter_test

import (
	"errors"
	"reflect"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/twitter"
)

// fakeStore records each call's method and arguments and answers with
// fixed results, one row each, so a query's shaping is visible.
type fakeStore struct {
	calls []string
	args  []any
	fail  bool
}

func (f *fakeStore) call(name string, args ...any) error {
	f.calls = append(f.calls, name)
	f.args = args
	if f.fail {
		return errors.New("boom")
	}
	return nil
}

func (f *fakeStore) Name() string { return "fake" }
func (f *fakeStore) Close() error { return nil }
func (f *fakeStore) UsersWithFollowersOver(th int64) ([]int64, error) {
	return []int64{11}, f.call("UsersWithFollowersOver", th)
}
func (f *fakeStore) Followees(uid int64) ([]int64, error) {
	return []int64{21}, f.call("Followees", uid)
}
func (f *fakeStore) TweetsOfFollowees(uid int64) ([]int64, error) {
	return []int64{22}, f.call("TweetsOfFollowees", uid)
}
func (f *fakeStore) HashtagsOfFollowees(uid int64) ([]string, error) {
	return []string{"t23"}, f.call("HashtagsOfFollowees", uid)
}
func (f *fakeStore) CoMentionedUsers(uid int64, n int) ([]twitter.Counted, error) {
	return []twitter.Counted{{ID: 31, Count: 1}}, f.call("CoMentionedUsers", uid, n)
}
func (f *fakeStore) CoOccurringHashtags(tag string, n int) ([]twitter.CountedTag, error) {
	return []twitter.CountedTag{{Tag: "t32", Count: 2}}, f.call("CoOccurringHashtags", tag, n)
}
func (f *fakeStore) RecommendFollowees(uid int64, n int) ([]twitter.Counted, error) {
	return []twitter.Counted{{ID: 41, Count: 3}}, f.call("RecommendFollowees", uid, n)
}
func (f *fakeStore) RecommendFollowersOfFollowees(uid int64, n int) ([]twitter.Counted, error) {
	return []twitter.Counted{{ID: 42, Count: 4}}, f.call("RecommendFollowersOfFollowees", uid, n)
}
func (f *fakeStore) CurrentInfluence(uid int64, n int) ([]twitter.Counted, error) {
	return []twitter.Counted{{ID: 51, Count: 5}}, f.call("CurrentInfluence", uid, n)
}
func (f *fakeStore) PotentialInfluence(uid int64, n int) ([]twitter.Counted, error) {
	return []twitter.Counted{{ID: 52, Count: 6}}, f.call("PotentialInfluence", uid, n)
}
func (f *fakeStore) ShortestPathLength(a, b int64, maxHops int) (int, bool, error) {
	return 2, true, f.call("ShortestPathLength", a, b, maxHops)
}

// fakeUpdateStore also accepts the update workload.
type fakeUpdateStore struct{ fakeStore }

func (f *fakeUpdateStore) AddUser(uid int64, name string) error {
	return f.call("AddUser", uid, name)
}
func (f *fakeUpdateStore) AddFollow(src, dst int64) error { return f.call("AddFollow", src, dst) }
func (f *fakeUpdateStore) AddTweet(uid, tid int64, text string, mentions []int64, tags []string) error {
	return f.call("AddTweet", uid, tid, text, mentions, tags)
}

// fullParams carries every parameter any query reads, well typed.
func fullParams() twitter.Params {
	return twitter.Params{
		"uid": int64(1), "uid2": int64(2), "tid": int64(3), "threshold": int64(4),
		"tag": "h", "screen_name": "u", "text": "hi",
		"mentions": []int64{5}, "tags": []string{"h"},
	}
}

// TestQueriesTable: Table 2's 11 reads, the paper's 4 starred, and the
// 3 updates, with unique ids and wire names.
func TestQueriesTable(t *testing.T) {
	var reads, updates []string
	starred := map[string]bool{}
	ids, wires := map[string]bool{}, map[string]bool{}
	for _, q := range twitter.Queries {
		if ids[q.ID] || wires[q.Wire] {
			t.Errorf("duplicate id %q or wire name %q", q.ID, q.Wire)
		}
		ids[q.ID], wires[q.Wire] = true, true
		if q.Category == "" || q.Fields == nil || q.Run == nil {
			t.Errorf("%s incomplete", q.ID)
		}
		if q.Idempotent {
			reads = append(reads, q.ID)
		} else {
			updates = append(updates, q.Wire)
		}
		if q.Starred {
			starred[q.ID] = true
		}
	}
	wantReads := []string{"Q1.1", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2", "Q4.1", "Q4.2", "Q5.1", "Q5.2", "Q6.1"}
	if !reflect.DeepEqual(reads, wantReads) {
		t.Errorf("reads %v, want %v", reads, wantReads)
	}
	if want := []string{"add_user", "add_follow", "add_tweet"}; !reflect.DeepEqual(updates, want) {
		t.Errorf("updates %v, want %v", updates, want)
	}
	if want := map[string]bool{"Q2.3": true, "Q3.2": true, "Q5.1": true, "Q5.2": true}; !reflect.DeepEqual(starred, want) {
		t.Errorf("starred %v, want %v", starred, want)
	}
}

// TestLookupQuery: every entry is found by its wire name; an unknown
// name is a miss.
func TestLookupQuery(t *testing.T) {
	for _, q := range twitter.Queries {
		if got, ok := twitter.LookupQuery(q.Wire); !ok || got.ID != q.ID {
			t.Errorf("LookupQuery(%q) = %v, %v", q.Wire, got, ok)
		}
	}
	if _, ok := twitter.LookupQuery("Q9.9"); ok {
		t.Error("ghost query found")
	}
}

// TestQueryRuns: each read calls exactly one Store method, no two reads
// the same one, and shapes its result into the serving layer's rows;
// each update calls its UpdateStore method and returns no rows.
func TestQueryRuns(t *testing.T) {
	wantRows := map[string][][]any{
		"Q1.1": {{int64(11)}},
		"Q2.1": {{int64(21)}},
		"Q2.2": {{int64(22)}},
		"Q2.3": {{"t23"}},
		"Q3.1": {{int64(31), int64(1)}},
		"Q3.2": {{"t32", int64(2)}},
		"Q4.1": {{int64(41), int64(3)}},
		"Q4.2": {{int64(42), int64(4)}},
		"Q5.1": {{int64(51), int64(5)}},
		"Q5.2": {{int64(52), int64(6)}},
		"Q6.1": {{int64(2)}},
	}
	methods := map[string]string{}
	for _, q := range twitter.Queries {
		fs := &fakeUpdateStore{}
		rows, err := q.Run(fs, fullParams())
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			continue
		}
		if len(fs.calls) != 1 {
			t.Errorf("%s: store calls %v, want one", q.ID, fs.calls)
			continue
		}
		if prev, ok := methods[fs.calls[0]]; ok {
			t.Errorf("%s and %s both call %s", prev, q.ID, fs.calls[0])
		}
		methods[fs.calls[0]] = q.ID
		if !reflect.DeepEqual(rows, wantRows[q.ID]) {
			t.Errorf("%s: rows %v, want %v", q.ID, rows, wantRows[q.ID])
		}
		if len(rows) > 0 && len(q.Fields) != len(rows[0]) {
			t.Errorf("%s: %d fields for %d columns", q.ID, len(q.Fields), len(rows[0]))
		}

		// A store error surfaces, with no rows.
		fs = &fakeUpdateStore{fakeStore{fail: true}}
		if rows, err := q.Run(fs, fullParams()); err == nil || rows != nil {
			t.Errorf("%s: failing store gave rows %v, err %v", q.ID, rows, err)
		}
	}
}

// TestQueryParamErrors: a missing or mistyped parameter, or an update
// on a read-only store, fails the query with an error, never a panic.
func TestQueryParamErrors(t *testing.T) {
	mistyped := twitter.Params{
		"uid": "1", "uid2": 2, "tid": 3.0, "threshold": "4",
		"tag": int64(5), "screen_name": []string{"u"},
	}
	for _, q := range twitter.Queries {
		for name, p := range map[string]twitter.Params{"missing": nil, "mistyped": mistyped} {
			fs := &fakeUpdateStore{}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s, %s parameters: panic %v", q.ID, name, r)
					}
				}()
				if rows, err := q.Run(fs, p); err == nil || rows != nil {
					t.Errorf("%s, %s parameters: rows %v, err %v", q.ID, name, rows, err)
				}
			}()
			if len(fs.calls) != 0 {
				t.Errorf("%s, %s parameters: store called %v", q.ID, name, fs.calls)
			}
		}
		if !q.Idempotent {
			if _, err := q.Run(&fakeStore{}, fullParams()); err == nil {
				t.Errorf("%s ran on a store without updates", q.ID)
			}
		}
	}
}

// TestQueryDefaults: the top-n budget n defaults to 10 and Q6.1's
// max_hops to 3, also when given as zero; a positive value is passed on.
func TestQueryDefaults(t *testing.T) {
	for _, c := range []struct {
		wire     string
		param    string
		argIdx   int
		def      int
		explicit int64
	}{
		{"co_mentioned", "n", 1, 10, 5},
		{"co_tags", "n", 1, 10, 5},
		{"recommend_followees", "n", 1, 10, 5},
		{"recommend_followers", "n", 1, 10, 5},
		{"influence_current", "n", 1, 10, 5},
		{"influence_potential", "n", 1, 10, 5},
		{"shortest_path", "max_hops", 2, 3, 6},
	} {
		q, _ := twitter.LookupQuery(c.wire)
		for _, v := range []any{nil, int64(0), c.explicit} {
			p := fullParams()
			if v != nil {
				p[c.param] = v
			}
			want := c.def
			if v == c.explicit {
				want = int(c.explicit)
			}
			fs := &fakeStore{}
			if _, err := q.Run(fs, p); err != nil {
				t.Fatalf("%s: %v", c.wire, err)
			}
			if got := fs.args[c.argIdx]; got != want {
				t.Errorf("%s with %s=%v: store got %v, want %d", c.wire, c.param, v, got, want)
			}
		}
	}
}

func TestStoreInterfacesComplete(t *testing.T) {
	var _ twitter.UpdateStore = (*twitter.NeoStore)(nil)
	var _ twitter.UpdateStore = (*twitter.SparkStore)(nil)
}

func TestApplyUnknownEvent(t *testing.T) {
	if _, err := twitter.ApplyAll(nil, []gen.Event{{Kind: gen.EventKind(99)}}); err == nil {
		t.Error("unknown event kind accepted")
	}
}
