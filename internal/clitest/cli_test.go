// Package clitest builds the command-line tools and exercises them
// end-to-end: generate → load → query, the pipeline a user of the
// released repository would run.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildErr  error
	binDir    string
)

// binaries builds all cmd/ tools once per test run.
func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "twigraph-bin-*")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"twigen", "twiload", "twibench", "twiql"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "twigraph/cmd/"+tool)
			cmd.Dir = repoRoot()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = &buildFailure{tool: tool, out: string(out), err: err}
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

type buildFailure struct {
	tool string
	out  string
	err  error
}

func (b *buildFailure) Error() string {
	return "building " + b.tool + ": " + b.err.Error() + "\n" + b.out
}

func repoRoot() string {
	// internal/clitest -> repo root.
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd))
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestGenerateLoadPipeline(t *testing.T) {
	bin := binaries(t)
	_ = bin
	work := t.TempDir()
	csvDir := filepath.Join(work, "data")

	out := run(t, "twigen", "-out", csvDir, "-users", "300", "-seed", "7")
	if !strings.Contains(out, "follows") || !strings.Contains(out, "Total") {
		t.Errorf("twigen output: %q", out)
	}
	for _, f := range []string{"users.csv", "tweets.csv", "follows.csv"} {
		if _, err := os.Stat(filepath.Join(csvDir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	out = run(t, "twiload", "-csv", csvDir, "-engine", "both", "-out", filepath.Join(work, "dbs"), "-batch", "100")
	if !strings.Contains(out, "Neo4j-analog") || !strings.Contains(out, "Sparksee-analog") {
		t.Errorf("twiload output: %q", out)
	}
	if !strings.Contains(out, "indexes") {
		t.Errorf("twiload missing phase report: %q", out)
	}
	if _, err := os.Stat(filepath.Join(work, "dbs", "neo", "nodes.store")); err != nil {
		t.Fatalf("neo store missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(work, "dbs", "sparksee.img")); err != nil {
		t.Fatalf("sparksee image missing: %v", err)
	}

	// Query the loaded neodb through the shell.
	cmd := exec.Command(filepath.Join(binaries(t), "twiql"), "-db", filepath.Join(work, "dbs", "neo"))
	cmd.Stdin = strings.NewReader(
		"MATCH (u:user {uid: 1})-[:follows]->(f:user) RETURN count(*);\n\\q\n")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("twiql: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "rows in") {
		t.Errorf("twiql output: %q", buf.String())
	}
}

func TestBenchListAndSingleExperiment(t *testing.T) {
	out := run(t, "twibench", "-list")
	for _, id := range []string{"table1", "table2", "fig2", "fig3", "fig4a", "fig4c", "fig4e", "fig4g",
		"phrasings", "plancache", "topn", "coldcache", "navtrav", "materialize", "semantic", "densenodes", "derived", "updates"} {
		if !strings.Contains(out, id) {
			t.Errorf("twibench -list missing %s", id)
		}
	}
	// Only the paper's experiments: perfbench measures ingest, serving and scale.
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "ingest" || f[0] == "serve" || f[0] == "scale") {
			t.Errorf("twibench -list still offers %s", f[0])
		}
	}
	// One real experiment at a small scale.
	out = run(t, "twibench", "-exp", "table1", "-users", "300")
	if !strings.Contains(out, "follows per user") {
		t.Errorf("table1 output: %q", out)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}
