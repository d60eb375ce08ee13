package sparkdb

import (
	"context"
	"errors"
	"testing"

	"twigraph/internal/graph"
)

func TestShortestPathBFSHonorsContext(t *testing.T) {
	db, oids := buildSmall(t)
	follows := db.typesByName["follows"]
	ets := []graph.TypeID{follows}

	ctx, cancel := context.WithTimeout(context.Background(), -1) // already expired
	defer cancel()
	if _, _, err := db.SinglePairShortestPathBFSCtx(ctx, oids[0], oids[2], ets, graph.Outgoing, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired BFS error = %v", err)
	}
	if got := db.Obs().Counter(CQueriesTimedOut).Load(); got != 1 {
		t.Errorf("queries_timed_out = %d, want 1", got)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, _, err := db.SinglePairShortestPathBFSCtx(cctx, oids[0], oids[2], ets, graph.Outgoing, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled BFS error = %v", err)
	}
	if got := db.Obs().Counter(CQueriesCancelled).Load(); got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}

	// The unbounded wrapper still answers correctly afterwards.
	path, ok := db.SinglePairShortestPathBFS(oids[0], oids[2], ets, graph.Outgoing, 4)
	if !ok || len(path) != 3 {
		t.Fatalf("unbounded BFS = (%v, %v)", path, ok)
	}
}

func TestTraversalRunCtxHonorsCancel(t *testing.T) {
	db, oids := buildSmall(t)
	follows := db.typesByName["follows"]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visits, err := db.NewTraversal(oids[0]).
		WithContext(ctx).
		AddEdgeType(follows, graph.Outgoing).
		SetMaximumHops(3).
		RunCtx()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled traversal error = %v", err)
	}
	if len(visits) != 0 {
		t.Errorf("cancelled traversal visited %d nodes", len(visits))
	}
	if got := db.Obs().Counter(CQueriesCancelled).Load(); got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}

	// Run (no context) still works on the same description after the
	// bound is removed.
	out := db.NewTraversal(oids[0]).AddEdgeType(follows, graph.Outgoing).SetMaximumHops(3).Run()
	if len(out) != 3 {
		t.Errorf("unbounded traversal visited %d nodes, want 3", len(out))
	}
}
