package load

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"twigraph/internal/gen"
	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

func generate(t *testing.T, cfg gen.Config) (string, gen.Summary) {
	t.Helper()
	dir := t.TempDir()
	sum, err := gen.GenerateStream(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, sum
}

func smallCfg() gen.Config {
	cfg := gen.Default()
	cfg.Users = 150
	cfg.Hashtags = 20
	return cfg
}

func TestBuildNeoEndToEnd(t *testing.T) {
	csvDir, sum := generate(t, smallCfg())
	res, err := BuildNeo(csvDir, filepath.Join(t.TempDir(), "neo"), neodb.Config{CachePages: 256}, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Store.Close()
	if res.Report.Nodes != sum.TotalNodes() {
		t.Errorf("imported %d nodes, generated %d", res.Report.Nodes, sum.TotalNodes())
	}
	if res.Report.Edges != sum.TotalEdges() {
		t.Errorf("imported %d edges, generated %d", res.Report.Edges, sum.TotalEdges())
	}
	if len(res.Series) == 0 {
		t.Error("no progress series for Figure 2")
	}
	// The store answers queries.
	fs, err := res.Store.Followees(1)
	if err != nil {
		t.Fatal(err)
	}
	_ = fs
	// Q3.2 anchors through the post-hoc tag index.
	if _, err := res.Store.CoOccurringHashtags("topic1", 5); err != nil {
		t.Fatal(err)
	}
	// Q1.1's scan under Tuned prunes with the follower-count index.
	db := res.Store.DB()
	if !db.HasIndex(db.LabelID(twitter.LabelUser), db.PropKeyID(twitter.PropFollowers)) {
		t.Error("no :user(followers) index")
	}
}

func TestBuildSparkEndToEnd(t *testing.T) {
	csvDir, sum := generate(t, smallCfg())
	res, err := BuildSpark(csvDir, sparkdb.ScriptOptions{BatchRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Nodes != sum.TotalNodes() || res.Report.Edges != sum.TotalEdges() {
		t.Errorf("report %+v vs summary %+v", res.Report, sum)
	}
	if len(res.Series) == 0 {
		t.Error("no progress series for Figure 3")
	}
	if _, err := res.Store.Followees(1); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSparkWithRetweets(t *testing.T) {
	cfg := smallCfg()
	cfg.Retweets = true
	cfg.RetweetsPer = 0.4
	csvDir, sum := generate(t, cfg)
	if sum.Retweets == 0 {
		t.Skip("no retweets generated at this scale")
	}
	res, err := BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Edges != sum.TotalEdges() {
		t.Errorf("edges %d, want %d (incl. retweets)", res.Report.Edges, sum.TotalEdges())
	}
}

func TestScriptContents(t *testing.T) {
	s := Script(false)
	for _, want := range []string{"node user", "node tweet", "node hashtag",
		"edge follows", "edge posts", "edge mentions", "edge tags",
		"materialize=false", "recovery=false", "extent_size=65536"} {
		if !strings.Contains(s, want) {
			t.Errorf("script missing %q", want)
		}
	}
	if strings.Contains(s, "retweets") {
		t.Error("retweets in script without retweets.csv")
	}
	if !strings.Contains(Script(true), "edge retweets") {
		t.Error("retweets missing from script with retweets.csv")
	}
}

func TestBuildNeoBadDir(t *testing.T) {
	if _, err := BuildNeo(t.TempDir(), filepath.Join(t.TempDir(), "neo"), neodb.Config{CachePages: 64}, 0); err == nil {
		t.Error("empty csv dir accepted")
	}
}

// TestBuildSparkLeavesCSVDirPristine guards against the loader writing
// its script or image into the dataset directory: a generated CSV dir
// must hold exactly the same files after BuildSpark as before.
func TestBuildSparkLeavesCSVDirPristine(t *testing.T) {
	csvDir, _ := generate(t, smallCfg())
	before := dirNames(t, csvDir)
	if _, err := BuildSpark(csvDir, sparkdb.ScriptOptions{}); err != nil {
		t.Fatal(err)
	}
	after := dirNames(t, csvDir)
	if !slices.Equal(before, after) {
		t.Errorf("csv dir changed:\n before %v\n after  %v", before, after)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}
