package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"twigraph/internal/obs"
	"twigraph/internal/qstats"
)

// SnapshotSchema versions the machine-readable snapshot layout.
const SnapshotSchema = "twigraph-bench/v1"

// Snapshot is the machine-readable result of a bench session: the
// harness's own latency histograms (per experiment/engine series, with
// p50/p95/p99) plus a full dump of each built engine's observability
// registry — page-cache, record-fetch, WAL, transaction and navigation
// counters. twibench -json writes one, so a run's numbers can be read
// back by tools (jq, python, ReadSnapshot) instead of scraped from the
// printed tables. Performance gating lives in perfbench, not here.
type Snapshot struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Users      int    `json:"users"`
	Seed       int64  `json:"seed"`

	// Engines maps engine name ("neo", "sparksee") to its registry
	// dump. An engine absent from the map was never built during the
	// session (not all experiments touch both).
	Engines map[string]obs.Snapshot `json:"engines"`

	// Bench holds the harness histograms keyed "experiment/series",
	// e.g. "fig4a/neo" or "coldcache/cold".
	Bench obs.Snapshot `json:"bench"`

	// QueryStats maps engine name to its per-fingerprint statement
	// statistics, ordered by total time descending — the
	// pg_stat_statements view of the run. Populated when the session ran
	// with statement capture (twibench -qstats). Per engine, the
	// statements' calls and total time sum to Engines[name]'s
	// query_latency histogram: the store wrapper records one measured
	// duration into both.
	QueryStats map[string][]qstats.StatSnapshot `json:"query_stats,omitempty"`
}

// Snapshot captures the current observability state of the session.
func (e *Env) Snapshot(experiment string) Snapshot {
	s := Snapshot{
		Schema:     SnapshotSchema,
		Experiment: experiment,
		Users:      e.Cfg.Users,
		Seed:       e.Cfg.Seed,
		Engines:    map[string]obs.Snapshot{},
		Bench:      e.Reg.Snapshot(),
	}
	if e.neoRes != nil && e.neoErr == nil {
		s.Engines[e.neoRes.Store.Name()] = e.neoRes.Store.Obs().Snapshot()
	}
	if e.sparkRes != nil && e.sparkErr == nil {
		s.Engines[e.sparkRes.Store.Name()] = e.sparkRes.Store.Obs().Snapshot()
	}
	if e.QueryStats {
		s.QueryStats = map[string][]qstats.StatSnapshot{}
		if e.neoRes != nil && e.neoErr == nil {
			s.QueryStats[e.neoRes.Store.Name()] = e.neoRes.Store.DB().QueryStats().Snapshot()
		}
		if e.sparkRes != nil && e.sparkErr == nil {
			s.QueryStats[e.sparkRes.Store.Name()] = e.sparkRes.Store.DB().QueryStats().Snapshot()
		}
	}
	return s
}

// WriteSnapshot marshals s as indented JSON to path.
func WriteSnapshot(path string, s Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSnapshot loads a snapshot written by WriteSnapshot, rejecting
// files from a different schema version.
func ReadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: %s: %w", path, err)
	}
	if s.Schema != SnapshotSchema {
		return s, fmt.Errorf("bench: %s: schema %q, want %q", path, s.Schema, SnapshotSchema)
	}
	return s, nil
}
