package twitter_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"twigraph/internal/driver"
	"twigraph/internal/faultconn"
	"twigraph/internal/gen"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/par"
	"twigraph/internal/serve"
	"twigraph/internal/sparkdb"
	"twigraph/internal/spmat"
	"twigraph/internal/twitter"
	"twigraph/internal/vfs"
)

// buildBoth generates a deterministic dataset and loads it into both
// engines.
func buildBoth(t testing.TB, cfg gen.Config) (*twitter.NeoStore, *twitter.SparkStore, gen.Summary) {
	s, sum := bulkStores(t, cfg, neoConfigs[:1])
	spark, err := twitter.NewSparkStore(s.dbs[1].spark)
	if err != nil {
		t.Fatal(err)
	}
	return twitter.NewNeoStore(s.dbs[0].neo), spark, sum
}

func smallCfg() gen.Config {
	cfg := gen.Default()
	cfg.Users, cfg.AvgFollowees, cfg.Hashtags, cfg.MentionsPer, cfg.TagsPer = 300, 6, 30, 0.8, 0.6
	return cfg
}

// profileStore is a store whose profile can be set and whose
// multi-hop paths the test seam can pin.
type profileStore interface {
	twitter.Store
	SetProfile(spmat.Profile)
	ForcePath(matrix bool)
	Obs() *obs.Registry
}

// column is one execution configuration of a store. The two profiles
// are what callers can select; the two seam columns pin the algebraic
// and the navigational path with 8 shards, since small test graphs
// send Tuned to the matrix path almost every time.
type column struct {
	name    string
	sharded bool // pins 8 shards
	set     func(profileStore)
}

var columns = []column{
	{"faithful", false, func(s profileStore) { s.SetProfile(spmat.Faithful) }},
	{"tuned", false, func(s profileStore) { s.SetProfile(spmat.Tuned) }},
	{"matrix-8", true, func(s profileStore) { s.ForcePath(true) }},
	{"nav-8", true, func(s profileStore) { s.ForcePath(false) }},
}

// row is one read of the table with one probe's parameters.
type row struct {
	q *twitter.Query
	p twitter.Params
}

func (r row) String() string { return fmt.Sprintf("%s %s%v", r.q.ID, r.q.Wire, map[string]any(r.p)) }

// multiHop reports whether the profile selects how the row runs
// (Q3.1–Q6.1).
func (r row) multiHop() bool { return r.q.ID >= "Q3" }

const newUID, unknownUID = 9001, 1_000_000

// probeRows crosses every read of twitter.Queries with the probe set
// of a graph of users uids: the sweep uids (the low ones are the hubs
// of the generator's preferential attachment), ten uids spread over
// the graph, newUID (added by step U1) and unknownUID; five tags, one
// unknown; five Q1.1 thresholds; and for Q6.1 a self-pair and a far
// pair per uid. Top-n reads run at the table's default n = 10.
func probeRows(users int64) []row {
	uids := []int64{1, 2, 3, 5, 17, 42, 100, 250, 299, newUID, unknownUID}
	for u := int64(1); u <= users; u += users / 10 {
		uids = append(uids, u)
	}
	slices.Sort(uids)
	uids = slices.Compact(uids)
	var rows []row
	for i := range twitter.Queries {
		q := &twitter.Queries[i]
		add := func(p twitter.Params) { rows = append(rows, row{q, p}) }
		switch {
		case !q.Idempotent:
		case q.ID == "Q1.1":
			for _, th := range []int64{0, 1, 5, 20, 1000} {
				add(twitter.Params{"threshold": th})
			}
		case q.ID == "Q3.2":
			for _, tag := range []string{"topic1", "topic2", "topic3", "topic10", "missing"} {
				add(twitter.Params{"tag": tag})
			}
		case q.ID == "Q6.1":
			for j, u := range uids {
				add(twitter.Params{"uid": u, "uid2": u})
				add(twitter.Params{"uid": u, "uid2": uids[(j+len(uids)/2)%len(uids)]})
			}
		default:
			for _, u := range uids {
				add(twitter.Params{"uid": u})
			}
		}
	}
	return rows
}

// engineDB is one database holding the graph, neo or spark. crash,
// on a FaultFS, drops what was not synced and reopens from the WAL.
type engineDB struct {
	name  string
	neo   *neodb.DB
	spark *sparkdb.DB
	crash func() (*neodb.DB, error)
}

// handle opens a fresh store over the database, on the default profile.
func (e *engineDB) handle(t *testing.T) profileStore {
	if e.neo != nil {
		return twitter.NewNeoStore(e.neo)
	}
	s, err := twitter.NewSparkStore(e.spark)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stores is one graph of users uids held in every database a column
// reads: neo (the reference's), neo-dense2, neo-16pages, spark and
// spark-image.
type stores struct {
	users  int64
	dbs    []*engineDB
	stream *gen.Stream // the live stream the replay step continues
}

// db returns the database called name, or nil.
func (s *stores) db(name string) *engineDB {
	if i := slices.IndexFunc(s.dbs, func(e *engineDB) bool { return e.name == name }); i >= 0 {
		return s.dbs[i]
	}
	return nil
}

// addImage saves spark to its run-compressed image and adds
// spark-image, the image loaded back.
func (s *stores) addImage(t testing.TB) {
	img := filepath.Join(t.TempDir(), "spark.img")
	if err := s.db("spark").spark.Save(img); err != nil {
		t.Fatal(err)
	}
	db, err := sparkdb.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	s.dbs = append(s.dbs, &engineDB{name: "spark-image", spark: db})
}

type neoConfig struct {
	name string
	cfg  neodb.Config
}

var neoConfigs = []neoConfig{
	{"neo", neodb.Config{CachePages: 1024}},
	{"neo-dense2", neodb.Config{CachePages: 1024, DenseThreshold: 2}},
	{"neo-16pages", neodb.Config{CachePages: 16}},
}

// bulkStores generates cfg's graph and bulk-loads it into a neo
// database per config of neos and into spark.
func bulkStores(t testing.TB, cfg gen.Config, neos []neoConfig) (*stores, gen.Summary) {
	csvDir := t.TempDir()
	sum, err := gen.GenerateStream(cfg, csvDir)
	if err != nil {
		t.Fatal(err)
	}
	s := &stores{users: int64(cfg.Users), stream: gen.NewStream(cfg, sum)}
	for _, c := range neos {
		res, err := load.BuildNeo(csvDir, t.TempDir(), c.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		closeClean(t, res.Store.DB())
		s.dbs = append(s.dbs, &engineDB{name: c.name, neo: res.Store.DB()})
	}
	res, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.dbs = append(s.dbs, &engineDB{name: "spark", spark: res.Store.DB()})
	return s, sum
}

// closeClean closes db when t ends, failing t if a Reader was not
// given back.
func closeClean(t testing.TB, db *neodb.DB) {
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	})
}

const randomUsers = 30

// randomStores writes randomUsers users and 300 seeded stream events
// over them (follows with parallel edges, tweets, new users) through
// every database's update path. No :user(followers) index exists, so
// Q1.1 scans every user. Neo syncs every commit to a FaultFS, so the
// crash step reopens it from the WAL alone.
func randomStores(t *testing.T, seed int64) *stores {
	cfg := smallCfg()
	cfg.Seed, cfg.Hashtags = seed, 4
	s := &stores{users: randomUsers, stream: gen.NewStream(cfg, gen.Summary{Users: randomUsers})}
	for _, c := range neoConfigs {
		fs := vfs.NewFaultFS()
		c.cfg.FS, c.cfg.SyncCommits = fs, true
		s.dbs = append(s.dbs, &engineDB{name: c.name, neo: emptyNeo(t, c.cfg), crash: func() (*neodb.DB, error) {
			fs.Crash()
			return neodb.Open("/db", c.cfg)
		}})
	}
	s.dbs = append(s.dbs, &engineDB{name: "spark", spark: emptySpark(t)})
	var evs []gen.Event
	for u := int64(1); u <= randomUsers; u++ {
		evs = append(evs, gen.Event{Kind: gen.EventNewUser, UID: u, ScreenName: "u"})
	}
	evs = append(evs, s.stream.Take(300)...)
	for _, e := range s.dbs {
		if _, err := twitter.ApplyAll(e.handle(t).(twitter.UpdateStore), evs); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	s.addImage(t)
	return s
}

// emptyNeo opens a neo database holding the schema and no data. It
// takes no checkpoint: the first commit writes the names and indexes to
// the catalog, so a crash after it replays against them.
func emptyNeo(t *testing.T, cfg neodb.Config) *neodb.DB {
	db, err := neodb.Open("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{twitter.RelFollows, twitter.RelPosts, twitter.RelMentions, twitter.RelTags} {
		db.RelType(rel)
	}
	for _, key := range []string{twitter.PropScreenName, twitter.PropFollowers, twitter.PropText} {
		db.PropKey(key)
	}
	for _, ix := range [][2]string{{twitter.LabelUser, twitter.PropUID}, {twitter.LabelTweet, twitter.PropTID},
		{twitter.LabelHashtag, twitter.PropHID}, {twitter.LabelHashtag, twitter.PropTag}} {
		if err := db.CreateIndex(db.Label(ix[0]), db.PropKey(ix[1])); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// emptySpark bulk-loads the dataset's files with no rows: the loader's
// schema and no data.
func emptySpark(t *testing.T) *sparkdb.DB {
	dir := t.TempDir()
	for file, header := range map[string]string{"users": "uid,screen_name,followers", "tweets": "tid,text",
		"hashtags": "hid,tag", "follows": "src,dst", "posts": "uid,tid", "mentions": "tid,uid", "tags": "tid,hid"} {
		if err := os.WriteFile(filepath.Join(dir, file+".csv"), []byte(header+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := load.BuildSpark(dir, sparkdb.ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Store.DB()
}

// step is one point of the mutations axis: a write every database
// takes; without one, "crash" crashes every database that can.
type step struct {
	name  string
	write func(twitter.UpdateStore) error
}

func update(wire string, p twitter.Params) step {
	q, _ := twitter.LookupQuery(wire)
	return step{q.ID, func(w twitter.UpdateStore) error { _, err := q.Run(w, p); return err }}
}

// steps is the mutations axis: the table's updates, a 300-event stream
// replay and, where the databases can crash, a crash. Were the imported
// followers count maintained, U2 would lift newUID over Q1.1's 0.
func steps(s *stores) []step {
	events := s.stream.Take(300)
	st := []step{
		{"load", nil},
		update("add_user", twitter.Params{"uid": int64(newUID), "screen_name": "newcomer"}),
		update("add_follow", twitter.Params{"uid": int64(1), "uid2": int64(newUID)}),
		update("add_tweet", twitter.Params{"uid": int64(newUID), "tid": int64(9_000_001),
			"text": "hello @user1 #topic1", "mentions": []int64{1}, "tags": []string{"topic1"}}),
		{"replay", func(w twitter.UpdateStore) error { _, err := twitter.ApplyAll(w, events); return err }},
	}
	if s.dbs[0].crash != nil {
		st = append(st, step{"crash", nil})
	}
	return st
}

// pathStats is what a column's calls reached: hops on each gated
// path, shards forked, calls, and neo's plan-cache lookups.
type pathStats struct{ matrix, nav, shards, calls, lookups uint64 }

// counters reads s's path counters; a served column reads none.
func counters(s twitter.Store) (c pathStats) {
	if ps, ok := s.(profileStore); ok {
		reg := ps.Obs()
		c = pathStats{reg.Counter(spmat.CMatrixHops).Load(), reg.Counter(spmat.CNavHops).Load(),
			reg.Counter(par.CShards).Load(), reg.Histogram(twitter.QueryLatencyHist).Count(), 0}
	}
	if n, ok := s.(*twitter.NeoStore); ok {
		hits, misses := n.Engine().CacheStats()
		c.lookups = hits + misses
	}
	return c
}

// plus returns a plus what the counters moved from before to after.
func (a pathStats) plus(before, after pathStats) pathStats {
	return pathStats{a.matrix + after.matrix - before.matrix, a.nav + after.nav - before.nav,
		a.shards + after.shards - before.shards, a.calls + after.calls - before.calls,
		a.lookups + after.lookups - before.lookups}
}

// cell is one column: what answers a row, and the store whose counters
// its stats read.
type cell struct {
	name string
	s    twitter.Store
	only string // when set, the column answers only this query's rows
	run  func(r row) ([][]any, error)
}

func storeCell(name string, s twitter.Store, only string) cell {
	return cell{name, s, only, func(r row) ([][]any, error) { return r.q.Run(s, r.p) }}
}

// runRows answers c's rows, by row, and adds what c reached to stats.
func runRows(c cell, rows []row, stats map[string]pathStats) ([][][]any, error) {
	before := counters(c.s)
	out := make([][][]any, len(rows))
	for i, r := range rows {
		if c.only != "" && r.q.ID != c.only {
			continue
		}
		res, err := c.run(r)
		if err == nil && res == nil {
			err = fmt.Errorf("nil rows")
		}
		if err != nil {
			return nil, fmt.Errorf("%v: %w", r, err)
		}
		out[i] = res
	}
	stats[c.name] = stats[c.name].plus(before, counters(c.s))
	return out, nil
}

// requireAgree fails t for every row (of query only) got differs on.
func requireAgree(t *testing.T, label string, rows []row, got, want [][][]any, only string) {
	t.Helper()
	for i, r := range rows {
		if (only == "" || r.q.ID == only) && !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: %v:\n got  %v\n want %v", label, r, got[i], want[i])
		}
	}
}

// q41Variant answers Q4.1 with one of the paper's ablation variants.
type q41Variant struct {
	twitter.Store
	rec func(uid int64, n int) ([]twitter.Counted, error)
}

func (v q41Variant) RecommendFollowees(uid int64, n int) ([]twitter.Counted, error) {
	return v.rec(uid, n)
}

// TestStoresAgree is the workload's one cross-store oracle: every read
// of twitter.Queries, crossed with the probe set and run through its
// own Run, returns on every column the rows neo returns under Faithful
// (the paper's Cypher text). The columns are neo, neo-dense2 (every
// node dense), neo-16pages, spark and spark-image, each under both
// profiles and both 8-shard seam paths; the Q4.1 ablation variants;
// and both engines served over fault-injecting connections. The
// graphs are two generated ones and eight random multigraphs written
// through the update path, checked again after each mutation step.
// Subtests are graph/step/column: -run 'TestStoresAgree/dense' runs
// one graph, -run 'TestStoresAgree///spark-image/nav-8' one column.
func TestStoresAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many databases")
	}
	names := []string{"stream", "dense"}
	bulk := func(cfg gen.Config) func(t *testing.T) *stores {
		return func(t *testing.T) *stores {
			s, _ := bulkStores(t, cfg, neoConfigs)
			s.addImage(t)
			return s
		}
	}
	builds := []func(t *testing.T) *stores{bulk(smallCfg()), bulk(denseCfg())}
	for seed := int64(1); seed <= 8; seed++ {
		names = append(names, fmt.Sprintf("random-%d", seed))
		builds = append(builds, func(t *testing.T) *stores { return randomStores(t, seed) })
	}
	for i, graph := range names {
		t.Run(graph, func(t *testing.T) {
			s := builds[i](t)
			rows := probeRows(s.users)
			stats := map[string]pathStats{}
			var prev [][][]any
			for _, st := range steps(s) {
				apply(t, s, st)
				ref := checkStep(t, st.name, s, rows, stats)
				switch st.name {
				case "U2":
					requireAgree(t, "the follow U2 adds moved Q1.1", rows, ref, prev, "Q1.1")
				case "crash":
					requireAgree(t, "the WAL replay lost a committed write", rows, ref, prev, "")
				}
				if st.write != nil && reflect.DeepEqual(ref, prev) {
					t.Errorf("%s changed no row", st.name)
				}
				prev = ref
			}
			checkCoverage(t, graph, s, rows, stats)
		})
	}
}

// denseCfg is the 600-user graph dense enough that Tuned's own density
// gate sends some hops to the matrix path and others to navigation.
func denseCfg() gen.Config {
	cfg := smallCfg()
	cfg.Users, cfg.AvgFollowees, cfg.Hashtags, cfg.MentionsPer = 600, 10, 40, 1.0
	return cfg
}

// apply takes step st on every database of s.
func apply(t *testing.T, s *stores, st step) {
	t.Helper()
	for _, e := range s.dbs {
		var err error
		if st.write != nil {
			err = st.write(e.handle(t).(twitter.UpdateStore))
		} else if e.crash != nil && st.name == "crash" {
			if e.neo, err = e.crash(); err == nil {
				closeClean(t, e.neo)
			}
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", st.name, e.name, err)
		}
	}
}

// checkStep computes the reference, neo under Faithful, and checks
// every other column against it in a subtest step/column. It returns
// the reference.
func checkStep(t *testing.T, step string, s *stores, rows []row, stats map[string]pathStats) [][][]any {
	t.Helper()
	ref := reference(t, s, rows, stats)
	for _, c := range cells(t, s, func(name string) bool { return name != "neo/faithful" }) {
		t.Run(step+"/"+c.name, func(t *testing.T) {
			got, err := runRows(c, rows, stats)
			if err != nil {
				t.Fatal(err)
			}
			requireAgree(t, "diverges from neo/faithful", rows, got, ref, c.only)
		})
	}
	return ref
}

// reference answers rows on neo under Faithful.
func reference(t *testing.T, s *stores, rows []row, stats map[string]pathStats) [][][]any {
	t.Helper()
	neo := s.db("neo").handle(t)
	neo.SetProfile(spmat.Faithful)
	ref, err := runRows(storeCell("neo/faithful", neo, ""), rows, stats)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return ref
}

// cells builds the columns over s's databases whose names keep admits:
// database/profile for every database and profile column, the Q4.1
// variants and, where s holds neo and spark, served/neo and
// served/sparksee.
func cells(t *testing.T, s *stores, keep func(name string) bool) []cell {
	var cs []cell
	for _, e := range s.dbs {
		for _, c := range columns {
			if name := e.name + "/" + c.name; keep(name) {
				h := e.handle(t)
				c.set(h)
				cs = append(cs, storeCell(name, h, ""))
			}
		}
	}
	neoH := twitter.NewNeoStore(s.db("neo").neo)
	method := func(m string) func(int64, int) ([]twitter.Counted, error) {
		return func(uid int64, n int) ([]twitter.Counted, error) { return neoH.RecommendFolloweesMethod(m, uid, n) }
	}
	variants := map[string]func(int64, int) ([]twitter.Counted, error){
		"neo/method-a": method("a"), "neo/method-c": method("c"), "neo/traversal": neoH.RecommendFolloweesTraversal,
	}
	if s.db("spark") != nil {
		variants["spark/traversal"] = s.db("spark").handle(t).(*twitter.SparkStore).RecommendFolloweesTraversal
	}
	for name, rec := range variants {
		if keep(name) {
			cs = append(cs, storeCell(name, q41Variant{neoH, rec}, "Q4.1"))
		}
	}
	if s.db("spark") == nil || !keep("served/neo") && !keep("served/sparksee") {
		return cs
	}
	cli := serveStores(t, s.db("neo").neo, s.db("spark").spark)
	for _, engine := range []string{"neo", "sparksee"} {
		if keep("served/" + engine) {
			cs = append(cs, cell{"served/" + engine, nil, "", func(r row) ([][]any, error) {
				res, err := cli.Query(context.Background(), engine, r.q.Wire, r.p)
				if err != nil {
					return nil, err
				}
				return append([][]any{}, res.Rows...), nil // the wire does not tell no rows from nil
			}})
		}
	}
	return cs
}

// serveStores serves both databases on loopback until t ends, and
// returns a driver whose connections reset, split writes, corrupt and
// stall at random. The fetch size splits larger results over several
// PULLs; the call timeout retries a read a corrupted length left waiting.
func serveStores(t *testing.T, neo *neodb.DB, spark *sparkdb.DB) *driver.Client {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{}, serve.NewNeoEngine(neo), serve.NewSparkEngine(spark))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cli := driver.New(driver.Config{
		Addr: ln.Addr().String(),
		Dial: faultconn.Dialer(faultconn.Config{Seed: 7, ResetProb: 0.005, PartialWriteProb: 0.005,
			GarbageProb: 0.002, StallProb: 0.005, StallFor: 100 * time.Microsecond}),
		MaxRetries: 30, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond,
		FetchSize: 16, CallTimeout: 2 * time.Second,
	})
	t.Cleanup(func() {
		cli.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := errors.Join(srv.Shutdown(ctx), <-done); err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return cli
}

// checkCoverage asserts what the sweep of a graph reached: both gated
// paths on every database all four columns ran on; under Faithful no
// matrix hop and, on neo, one plan-cache lookup per call; more than
// one shard per call in every 8-shard column; both paths under Tuned
// alone on the dense graph; a Q4.2 tie at the LIMIT on the stream
// graph; and, where s holds spark-image, run containers, gauged.
func checkCoverage(t *testing.T, graph string, s *stores, rows []row, stats map[string]pathStats) {
	t.Helper()
	for _, e := range s.dbs {
		matrix, nav, ran := uint64(0), uint64(0), 0
		for _, c := range columns {
			name := e.name + "/" + c.name
			st, ok := stats[name]
			if !ok { // filtered out by -run
				continue
			}
			matrix, nav, ran = matrix+st.matrix, nav+st.nav, ran+1
			if c.sharded && st.shards <= st.calls {
				t.Errorf("%s: %d shards over %d calls, want more than one per call", name, st.shards, st.calls)
			}
			if c.name == "faithful" && (st.matrix != 0 || e.neo != nil && st.lookups != st.calls) {
				t.Errorf("%s: %d matrix hops and %d plan-cache lookups over %d calls, want 0 and one per call",
					name, st.matrix, st.lookups, st.calls)
			}
			if c.name == "tuned" && graph == "dense" && (st.matrix == 0 || st.nav == 0) {
				t.Errorf("%s ran %d matrix and %d nav hops, want both > 0", name, st.matrix, st.nav)
			}
		}
		if ran == len(columns) && (matrix == 0 || nav == 0) {
			t.Errorf("%s: the sweep ran %d matrix and %d nav hops, want both > 0", e.name, matrix, nav)
		}
	}
	// A tie at the cut, which every column must break on uid alike.
	tie, neo := false, s.db("neo").handle(t)
	for _, r := range rows {
		if r.q.ID == "Q4.2" && graph == "stream" {
			out, err := r.q.Run(neo, twitter.Params{"uid": r.p["uid"], "n": int64(11)})
			tie = tie || err == nil && len(out) == 11 && out[9][1] == out[10][1]
		}
	}
	if graph == "stream" && !tie {
		t.Error("no Q4.2 probe ranks an 11th candidate level with the 10th")
	}
	if s.db("spark-image") == nil {
		return
	}
	img := s.db("spark-image").spark
	st := img.BitmapStats() // refreshes the gauges too
	gauges := map[string]int64{}
	img.Obs().EachGauge(func(name string, g *obs.Gauge) { gauges[name] = g.Load() })
	if st.Runs == 0 || gauges[sparkdb.GBitmapRunContainers] != int64(st.Runs) || gauges[sparkdb.GBitmapMemBytes] == 0 ||
		gauges[sparkdb.GBitmapArrayContainers] != int64(st.Arrays) || gauges[sparkdb.GBitmapBitsetContainers] != int64(st.Bitsets) {
		t.Errorf("spark-image holds %+v, gauges %v: want run containers, gauged", st, gauges)
	}
}

// TestReadersOnFourPages runs TestStoresAgree's Q3.2, Q4.1 and Q4.2
// rows under Tuned with 4 workers on a 4-page cache per store file, on
// both gated paths and from three stores at once, and requires
// Faithful's rows and every Reader given back: afterwards exactly the
// 4 frames can be borrowed again, and the database closes without a
// Reader outstanding.
func TestReadersOnFourPages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a database")
	}
	s, _ := bulkStores(t, smallCfg(), []neoConfig{{"neo", neodb.Config{CachePages: 4}}})
	db := s.dbs[0].neo
	rows := slices.DeleteFunc(probeRows(300), func(r row) bool { return r.q.ID != "Q3.2" && r.q.ID != "Q4.1" && r.q.ID != "Q4.2" })
	ref := twitter.NewNeoStore(db)
	ref.SetProfile(spmat.Faithful)
	want, err := runRows(storeCell("", ref, ""), rows, map[string]pathStats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range columns[1:] {
		var wg sync.WaitGroup
		for range 3 {
			s := twitter.NewNeoStore(db)
			c.set(s)
			s.SetWorkers(4)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := runRows(storeCell("", s, ""), rows, map[string]pathStats{}); err != nil {
					t.Errorf("%s: %v", c.name, err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverges from faithful", c.name)
				}
			}()
		}
		wg.Wait()
		n := db.BorrowReaders(5)
		for range n {
			db.ReturnReader()
		}
		if n != 4 {
			t.Errorf("%s: after the queries %d of 4 Readers can be borrowed", c.name, n)
		}
	}
}
