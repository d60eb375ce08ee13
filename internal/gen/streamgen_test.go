package gen

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func streamCfg() Config {
	cfg := Default()
	cfg.Users = 400
	return cfg
}

func readAll(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestGenerateStreamDeterministic pins seed determinism: two runs with
// the same config produce the same summary and byte-identical files,
// retweets included. TestGenerateDifferentSeedsDiffer checks the
// converse.
func TestGenerateStreamDeterministic(t *testing.T) {
	cfg := streamCfg()
	cfg.Retweets = true
	cfg.RetweetsPer = 0.5
	d1, d2 := t.TempDir(), t.TempDir()
	s1, err := GenerateStream(cfg, d1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := GenerateStream(cfg, d2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("summaries differ: %+v vs %+v", s1, s2)
	}
	f1, f2 := readAll(t, d1), readAll(t, d2)
	if len(f1) != 8 || len(f1) != len(f2) {
		t.Fatalf("file sets differ: %d vs %d files, want 8", len(f1), len(f2))
	}
	for name, b := range f1 {
		if !bytes.Equal(b, f2[name]) {
			t.Errorf("%s differs between identical runs", name)
		}
	}
}

// TestGenerateStreamShape checks what gen_test.go's property tests do
// not: edge volume near Users x AvgFollowees and referential integrity
// across the CSV files.
func TestGenerateStreamShape(t *testing.T) {
	cfg := streamCfg()
	dir := t.TempDir()
	sum, err := GenerateStream(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Users != cfg.Users || sum.Tweets == 0 || sum.Posts != sum.Tweets {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	want := float64(cfg.Users) * cfg.AvgFollowees
	if f := float64(sum.Follows); f < want*0.5 || f > want*1.6 {
		t.Errorf("follows %d implausible for mean %f", sum.Follows, want)
	}

	// Referential integrity: every follows/mentions endpoint is a user
	// and every tag row references a vocabulary entry.
	users := map[int]bool{}
	for _, ln := range splitLines(t, dir, "users.csv") {
		uid, _ := strconv.Atoi(strings.Split(ln, ",")[0])
		users[uid] = true
	}
	for _, ln := range splitLines(t, dir, "follows.csv") {
		parts := strings.Split(ln, ",")
		src, _ := strconv.Atoi(parts[0])
		dst, _ := strconv.Atoi(parts[1])
		if !users[src] || !users[dst] {
			t.Fatalf("bad follow edge %q", ln)
		}
	}
	tags := map[int]bool{}
	for _, ln := range splitLines(t, dir, "hashtags.csv") {
		hid, _ := strconv.Atoi(strings.Split(ln, ",")[0])
		tags[hid] = true
	}
	for _, ln := range splitLines(t, dir, "tags.csv") {
		hid, _ := strconv.Atoi(strings.Split(ln, ",")[1])
		if !tags[hid] {
			t.Fatalf("tags.csv references unknown hashtag in %q", ln)
		}
	}
	for _, ln := range splitLines(t, dir, "mentions.csv") {
		uid, _ := strconv.Atoi(strings.Split(ln, ",")[1])
		if !users[uid] {
			t.Fatalf("mentions.csv references unknown user in %q", ln)
		}
	}
}

// TestGenerateStreamRetweets covers the optional retweets file: it
// exists, holds as many rows as the summary counts, and every retweet
// references an earlier tweet (so retweets never form a cycle).
func TestGenerateStreamRetweets(t *testing.T) {
	cfg := streamCfg()
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
	lines := splitLines(t, dir, "retweets.csv")
	if len(lines) != sum.Retweets {
		t.Fatalf("retweets.csv has %d rows, summary says %d", len(lines), sum.Retweets)
	}
	seen := map[string]bool{}
	for _, ln := range lines {
		parts := strings.Split(ln, ",")
		src, _ := strconv.Atoi(parts[0])
		dst, _ := strconv.Atoi(parts[1])
		if dst >= src || src > sum.Tweets || dst < 1 {
			t.Fatalf("bad retweet edge %q", ln)
		}
		if seen[ln] {
			t.Fatalf("duplicate retweet edge %q", ln)
		}
		seen[ln] = true
	}
}

// TestFenwick checks the sampling tree against brute force.
func TestFenwick(t *testing.T) {
	weights := []int64{3, 0, 5, 1, 7, 2}
	f := newFenwick(len(weights))
	var total int64
	for i, w := range weights {
		f.add(i, w)
		total += w
	}
	if f.total() != total {
		t.Fatalf("total %d, want %d", f.total(), total)
	}
	// Every point in [0, total) must map to the element owning that
	// span of the cumulative distribution.
	idx := 0
	var cum int64
	for r := int64(0); r < total; r++ {
		for r >= cum+weights[idx] {
			cum += weights[idx]
			idx++
		}
		if got := f.search(r); got != idx {
			t.Fatalf("search(%d) = %d, want %d", r, got, idx)
		}
	}
	// Weight updates shift the mapping.
	f.add(1, 4)
	if got := f.search(3); got != 1 {
		t.Fatalf("after update search(3) = %d, want 1", got)
	}
}

// FuzzGenerateStreamDeterminism fuzzes config knobs and asserts the
// streaming generator stays deterministic and structurally sound.
func FuzzGenerateStreamDeterminism(f *testing.F) {
	f.Add(int64(42), uint8(50), uint8(30), uint8(8))
	f.Add(int64(7), uint8(3), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, users, hashtags, avg10 uint8) {
		cfg := Default()
		cfg.Seed = seed
		cfg.Users = 1 + int(users)
		cfg.Hashtags = int(hashtags)
		cfg.AvgFollowees = float64(avg10) / 10
		d1, d2 := t.TempDir(), t.TempDir()
		s1, err := GenerateStream(cfg, d1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := GenerateStream(cfg, d2)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Fatalf("summaries differ: %+v vs %+v", s1, s2)
		}
		f1, f2 := readAll(t, d1), readAll(t, d2)
		for name, b := range f1 {
			if !bytes.Equal(b, f2[name]) {
				t.Fatalf("%s not deterministic", name)
			}
		}
		// Structural floor: every edge file parses and stays in range.
		for _, ln := range splitLines(t, d1, "follows.csv") {
			parts := strings.Split(ln, ",")
			src, err1 := strconv.Atoi(parts[0])
			dst, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || src < 1 || src > cfg.Users || dst < 1 || dst > cfg.Users || src == dst {
				t.Fatalf("bad follow row %q", ln)
			}
		}
	})
}

// splitLines reads a CSV file and returns its data rows (header
// stripped, trailing newline trimmed).
func splitLines(t *testing.T, dir, name string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) < 1 {
		t.Fatalf("%s empty", name)
	}
	return lines[1:]
}
