package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twigraph/internal/gen"
)

// tinyEnv builds a small environment so every experiment finishes in
// test time.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	cfg := gen.Default()
	cfg.Users = 250
	cfg.Hashtags = 30
	cfg.MentionsPer = 0.9
	cfg.TagsPer = 0.7
	cfg.Retweets = true
	cfg.RetweetsPer = 0.3
	e := NewEnv(cfg, t.TempDir())
	t.Cleanup(func() { e.Close() })
	return e
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	e := tinyEnv(t)
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ex.Run(e, &buf); err != nil {
				t.Fatalf("%s: %v", ex.ID, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", ex.ID)
			}
		})
	}
}

func TestLookupExperiment(t *testing.T) {
	ex, err := Lookup("fig4a")
	if err != nil || ex.ID != "fig4a" {
		t.Errorf("Lookup = %+v, %v", ex, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("ghost experiment found")
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, ex := range All() {
		if seen[ex.ID] {
			t.Errorf("duplicate experiment id %s", ex.ID)
		}
		seen[ex.ID] = true
		if ex.Title == "" || ex.Run == nil {
			t.Errorf("experiment %s incomplete", ex.ID)
		}
	}
}

func TestTable2ReportsAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both engines")
	}
	e := tinyEnv(t)
	var buf bytes.Buffer
	if err := runTable2(e, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "NO") {
		t.Errorf("engines disagree:\n%s", out)
	}
	for _, q := range []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1", "Q5.1", "Q6.1"} {
		if !strings.Contains(out, q) {
			t.Errorf("missing %s in table 2 output", q)
		}
	}
}

func TestEnvSharedBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds engines")
	}
	e := tinyEnv(t)
	n1, err := e.Neo()
	if err != nil {
		t.Fatal(err)
	}
	n2, err := e.Neo()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Error("Neo() rebuilt the engine")
	}
	s1, _ := e.Spark()
	s2, _ := e.Spark()
	if s1 != s2 {
		t.Error("Spark() rebuilt the engine")
	}
}

func TestSampleUsersCoversSpectrum(t *testing.T) {
	e := tinyEnv(t)
	deg, err := e.MentionDegree()
	if err != nil {
		t.Fatal(err)
	}
	users := e.sampleUsers(40, deg)
	if len(users) == 0 || len(users) > 40 {
		t.Fatalf("sampled %d users", len(users))
	}
	seen := map[int64]bool{}
	for _, u := range users {
		if seen[u] {
			t.Fatalf("duplicate sample %d", u)
		}
		seen[u] = true
		if u < 1 || u > int64(e.Cfg.Users) {
			t.Fatalf("sample %d out of range", u)
		}
	}
}

// TestDegreeErrorSticks: a failed degree read keeps failing. Callers
// after the first must not get empty maps, or the fig4 and ablation
// buckets would be built from all-zero degrees.
func TestDegreeErrorSticks(t *testing.T) {
	e := tinyEnv(t)
	dir, _, err := e.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "mentions.csv")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if deg, err := e.MentionDegree(); err == nil {
			t.Fatalf("call %d: MentionDegree = %d entries, nil error; want the read error", i, len(deg))
		}
	}
	if _, err := e.OutDegree(); err == nil {
		t.Fatal("OutDegree after a failed degree read returned nil error")
	}
}
