package gen

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGenerateDeterministic pins seed determinism for the default
// configuration and its seven-file layout (no retweets): two runs give
// the same summary and byte-identical files.
// TestGenerateStreamDeterministic covers the eight-file layout with
// retweets.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Users = 200
	dirA, dirB := t.TempDir(), t.TempDir()
	sumA, err := GenerateStream(cfg, dirA)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := GenerateStream(cfg, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if sumA != sumB {
		t.Fatalf("summaries differ: %+v vs %+v", sumA, sumB)
	}
	for _, f := range []string{"users.csv", "tweets.csv", "hashtags.csv", "follows.csv", "posts.csv", "mentions.csv", "tags.csv"} {
		a, err := os.ReadFile(filepath.Join(dirA, f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, f))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between runs", f)
		}
	}
}

// TestGenerateDifferentSeedsDiffer checks that the seed reaches the
// graph: a different seed draws a different follows.csv.
func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := Default()
	cfg.Users = 200
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := GenerateStream(cfg, dirA); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 43
	if _, err := GenerateStream(cfg, dirB); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dirA, "follows.csv"))
	b, _ := os.ReadFile(filepath.Join(dirB, "follows.csv"))
	if string(a) == string(b) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestSummaryMatchesFiles(t *testing.T) {
	cfg := Default()
	cfg.Users = 300
	dir := t.TempDir()
	sum, err := GenerateStream(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, f := range []string{"users.csv", "tweets.csv", "hashtags.csv", "follows.csv", "posts.csv", "mentions.csv", "tags.csv"} {
		counts[f] = countRows(t, filepath.Join(dir, f))
	}
	if counts["users.csv"] != sum.Users || counts["tweets.csv"] != sum.Tweets ||
		counts["hashtags.csv"] != sum.Hashtags || counts["follows.csv"] != sum.Follows ||
		counts["posts.csv"] != sum.Posts || counts["mentions.csv"] != sum.Mentions ||
		counts["tags.csv"] != sum.Tags {
		t.Errorf("summary %+v vs files %v", sum, counts)
	}
	if sum.TotalNodes() != sum.Users+sum.Tweets+sum.Hashtags {
		t.Error("TotalNodes arithmetic")
	}
	if sum.TotalEdges() != sum.Follows+sum.Posts+sum.Mentions+sum.Tags {
		t.Error("TotalEdges arithmetic")
	}
}

func countRows(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return len(recs) - 1 // header
}

func TestPaperRatiosPreserved(t *testing.T) {
	// Table 1 ratios: follows/users ≈ 11.5, posts == tweets,
	// mentions/tweets ≈ 0.46, tags/tweets ≈ 0.30.
	cfg := Default()
	cfg.Users = 3000
	sum, err := GenerateStream(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Posts != sum.Tweets {
		t.Errorf("posts %d != tweets %d", sum.Posts, sum.Tweets)
	}
	followRatio := float64(sum.Follows) / float64(sum.Users)
	if followRatio < 8 || followRatio > 16 {
		t.Errorf("follows/users = %.2f, want ≈11.5", followRatio)
	}
	mentionRatio := float64(sum.Mentions) / float64(sum.Tweets)
	if mentionRatio < 0.2 || mentionRatio > 0.9 {
		t.Errorf("mentions/tweets = %.2f, want ≈0.46", mentionRatio)
	}
	tagRatio := float64(sum.Tags) / float64(sum.Tweets)
	if tagRatio < 0.1 || tagRatio > 0.7 {
		t.Errorf("tags/tweets = %.2f, want ≈0.30", tagRatio)
	}
}

func TestHeavyTailedFollowerDistribution(t *testing.T) {
	cfg := Default()
	cfg.Users = 2000
	dir := t.TempDir()
	if _, err := GenerateStream(cfg, dir); err != nil {
		t.Fatal(err)
	}
	// Read follower counts from users.csv; the max should far exceed
	// the mean (preferential attachment).
	f, err := os.Open(filepath.Join(dir, "users.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var total, max int
	for _, rec := range recs[1:] {
		n, _ := strconv.Atoi(rec[2])
		total += n
		if n > max {
			max = n
		}
	}
	mean := float64(total) / float64(len(recs)-1)
	if float64(max) < 10*mean {
		t.Errorf("max followers %d vs mean %.1f: distribution not heavy-tailed", max, mean)
	}
}

func TestNoDuplicateEdgesOrSelfLoops(t *testing.T) {
	cfg := Default()
	cfg.Users = 500
	dir := t.TempDir()
	if _, err := GenerateStream(cfg, dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"follows.csv", "mentions.csv", "tags.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
		seen := map[string]bool{}
		for _, l := range lines {
			if seen[l] {
				t.Fatalf("%s: duplicate edge %s", f, l)
			}
			seen[l] = true
			if f == "follows.csv" {
				parts := strings.Split(l, ",")
				if parts[0] == parts[1] {
					t.Fatalf("follows self-loop: %s", l)
				}
			}
		}
	}
}

func TestFollowersColumnMatchesInDegree(t *testing.T) {
	cfg := Default()
	cfg.Users = 400
	dir := t.TempDir()
	if _, err := GenerateStream(cfg, dir); err != nil {
		t.Fatal(err)
	}
	inDeg := map[string]int{}
	data, _ := os.ReadFile(filepath.Join(dir, "follows.csv"))
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		dst := strings.Split(l, ",")[1]
		inDeg[dst]++
	}
	users, _ := os.ReadFile(filepath.Join(dir, "users.csv"))
	for _, l := range strings.Split(strings.TrimSpace(string(users)), "\n")[1:] {
		parts := strings.Split(l, ",")
		want := inDeg[parts[0]]
		got, _ := strconv.Atoi(parts[2])
		if got != want {
			t.Fatalf("user %s followers column %d, in-degree %d", parts[0], got, want)
		}
	}
}

// TestRetweetsGeneration checks that turning retweets on writes
// retweets.csv and that every retweet references an earlier tweet.
// TestGenerateStreamRetweets pins the row count and edge ranges.
func TestRetweetsGeneration(t *testing.T) {
	cfg := Default()
	cfg.Users = 200
	cfg.Retweets = true
	cfg.RetweetsPer = 0.5
	dir := t.TempDir()
	sum, err := GenerateStream(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Retweets == 0 {
		t.Fatal("no retweets generated")
	}
	if _, err := os.Stat(filepath.Join(dir, "retweets.csv")); err != nil {
		t.Fatal(err)
	}
	// Retweets always reference earlier tweets (no cycles).
	data, _ := os.ReadFile(filepath.Join(dir, "retweets.csv"))
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		parts := strings.Split(l, ",")
		src, _ := strconv.Atoi(parts[0])
		dst, _ := strconv.Atoi(parts[1])
		if dst >= src {
			t.Fatalf("retweet %s not of an earlier tweet", l)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateStream(Config{}, t.TempDir()); err == nil {
		t.Error("zero config accepted")
	}
	cfg := Default()
	cfg.Users = 10
	if _, err := GenerateStream(cfg, "/dev/null/nope"); err == nil {
		t.Error("bad directory accepted")
	}
}

func TestMentionsRespectZipf(t *testing.T) {
	// The most-mentioned user should collect far more mentions than the
	// median mentioned user.
	cfg := Default()
	cfg.Users = 1000
	cfg.MentionsPer = 2
	dir := t.TempDir()
	if _, err := GenerateStream(cfg, dir); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	data, _ := os.ReadFile(filepath.Join(dir, "mentions.csv"))
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
		counts[strings.Split(l, ",")[1]]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 20 {
		t.Errorf("max mention count %d: mention popularity not skewed", max)
	}
}
