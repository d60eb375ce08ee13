package bench

import (
	"path/filepath"
	"testing"
	"time"

	"twigraph/internal/obs"
	"twigraph/internal/qstats"
)

// fixtureSnapshot builds a snapshot whose bench registry holds the
// given series, each observed with the given latencies (ns).
func fixtureSnapshot(t *testing.T, series map[string][]int64) Snapshot {
	t.Helper()
	reg := obs.NewRegistry()
	for name, obsv := range series {
		h := reg.Histogram(name)
		for _, v := range obsv {
			h.Observe(v)
		}
	}
	return Snapshot{Schema: SnapshotSchema, Experiment: "fixture", Bench: reg.Snapshot()}
}

// statsFixture builds a statement registry where each named statement
// was called len(latencies) times with the given durations.
func statsFixture(stmts map[string][]time.Duration) []qstats.StatSnapshot {
	st := qstats.NewStats(0)
	for text, lats := range stmts {
		fp := qstats.Compute(text)
		for _, d := range lats {
			st.Record(fp, d, 1, obs.StatusCompleted, qstats.Handle{})
		}
	}
	return st.Snapshot()
}

func TestReadSnapshotRoundTrip(t *testing.T) {
	s := fixtureSnapshot(t, map[string][]int64{"table2/neo": {1e6, 2e6}})
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := got.Bench.Histograms["table2/neo"]
	if !ok || h.Count != 2 {
		t.Fatalf("round-trip lost the series: %+v", got.Bench)
	}

	// A wrong schema is rejected, not silently read.
	s.Schema = "twigraph-bench/v0"
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestSnapshotQueryStatsRoundTrip: a snapshot carrying query_stats
// survives the write → read cycle with statements intact, and the field
// is omitted (nil after read) when capture was off.
func TestSnapshotQueryStatsRoundTrip(t *testing.T) {
	s := fixtureSnapshot(t, map[string][]int64{"fig4a/neo": {1e6}})
	s.QueryStats = map[string][]qstats.StatSnapshot{
		"neo": statsFixture(map[string][]time.Duration{
			"neo: Followees": {2 * time.Millisecond, 4 * time.Millisecond},
		}),
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteSnapshot(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	stmts := got.QueryStats["neo"]
	if len(stmts) != 1 || stmts[0].Calls != 2 || stmts[0].TotalNanos != int64(6*time.Millisecond) {
		t.Fatalf("query_stats round trip = %+v", got.QueryStats)
	}
	if stmts[0].Query != "neo: Followees" {
		t.Errorf("statement text = %q", stmts[0].Query)
	}

	// No capture → no field in the JSON, nil after read.
	plain := fixtureSnapshot(t, map[string][]int64{"fig4a/neo": {1e6}})
	if err := WriteSnapshot(path, plain); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if got.QueryStats != nil {
		t.Errorf("QueryStats = %+v, want nil", got.QueryStats)
	}
}
