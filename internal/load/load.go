// Package load glues the dataset generator to the two engines' bulk
// loaders: it imports a generated CSV directory into a fresh neodb
// database via the batch import tool, and into a fresh sparkdb database
// via a loader script, collecting the per-batch progress series behind
// the paper's Figures 2 and 3.
package load

import (
	"fmt"
	"os"
	"path/filepath"

	"twigraph/internal/neodb"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// NeoResult bundles the artifacts of a neodb import.
type NeoResult struct {
	Store  *twitter.NeoStore
	Report neodb.ImportReport
	Series []neodb.ProgressPoint
}

// BuildNeo imports csvDir into a fresh neodb database at dbDir. The
// batchRows parameter controls the progress-series granularity.
func BuildNeo(csvDir, dbDir string, cfg neodb.Config, batchRows int) (*NeoResult, error) {
	db, err := neodb.Open(dbDir, cfg)
	if err != nil {
		return nil, err
	}
	res := &NeoResult{}
	imp := db.NewImporter(batchRows, func(p neodb.ProgressPoint) {
		res.Series = append(res.Series, p)
	})
	nodes, edges := neodb.ImportDirLayout(csvDir)
	res.Report, err = imp.Run(nodes, edges)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load: neodb import: %w", err)
	}
	// The hashtag text is a unique identifier too; both engines index
	// it so Q3.2 anchors symmetrically. The follower count is indexed
	// for the Tuned profile, whose label scans prune Q1.1's candidates
	// with it; Faithful scans every user, as Neo4j 2.2 (no range seek)
	// did, and sparkdb's Select has no index to use for it.
	for _, ix := range [][2]string{
		{twitter.LabelHashtag, twitter.PropTag},
		{twitter.LabelUser, twitter.PropFollowers},
	} {
		if err := db.CreateIndex(db.LabelID(ix[0]), db.PropKey(ix[1])); err != nil {
			db.Close()
			return nil, err
		}
	}
	res.Store = twitter.NewNeoStore(db)
	return res, nil
}

// SparkResult bundles the artifacts of a sparkdb import.
type SparkResult struct {
	Store  *twitter.SparkStore
	Report sparkdb.ScriptResult
	Series []sparkdb.Progress
}

// BuildSpark generates a loader script for the conventional layout and
// executes it against a fresh sparkdb database, reading the CSVs from
// csvDir. The script — and, unless opts.ImagePath names a destination,
// the persisted image — live in a temporary directory that is removed
// on return, so csvDir itself is never written to.
func BuildSpark(csvDir string, opts sparkdb.ScriptOptions) (*SparkResult, error) {
	hasRetweets := false
	if _, err := os.Stat(filepath.Join(csvDir, "retweets.csv")); err == nil {
		hasRetweets = true
	}
	workDir, err := os.MkdirTemp("", "twigraph-spark-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	scriptPath := filepath.Join(workDir, "twitter.sks")
	if err := os.WriteFile(scriptPath, []byte(Script(hasRetweets)), 0o644); err != nil {
		return nil, err
	}
	if opts.DataDir == "" {
		opts.DataDir = csvDir
	}
	db := sparkdb.New(sparkdb.Config{})
	res := &SparkResult{}
	res.Report, err = db.RunScript(scriptPath, opts, func(p sparkdb.Progress) {
		res.Series = append(res.Series, p)
	})
	if err != nil {
		return nil, fmt.Errorf("load: sparkdb import: %w", err)
	}
	res.Store, err = twitter.NewSparkStore(db)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Script returns the sparkdb loader script for the conventional CSV
// layout, mirroring the paper's import settings (64 KB extents, 5 GB
// cache, recovery off, neighbor materialisation off).
func Script(hasRetweets bool) string {
	s := `# Sparksee-analog loader script for the twigraph dataset layout.
options extent_size=65536 cache_size=5368709120 materialize=false recovery=false
node user users.csv uid:int:index screen_name:string followers:int
node tweet tweets.csv tid:int:index text:string
node hashtag hashtags.csv hid:int:index tag:string:index
edge follows follows.csv user.uid user.uid
edge posts posts.csv user.uid tweet.tid
edge mentions mentions.csv tweet.tid user.uid
edge tags tags.csv tweet.tid hashtag.hid
`
	if hasRetweets {
		s += "edge retweets retweets.csv tweet.tid tweet.tid\n"
	}
	return s
}
