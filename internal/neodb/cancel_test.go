package neodb

import (
	"context"
	"errors"
	"testing"

	"twigraph/internal/graph"
)

func TestTraversalHonorsCancelledContext(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	follows := db.RelTypeID("follows")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visits := 0
	err := db.NewTraversal().
		WithContext(ctx).
		Expand(follows, graph.Outgoing).
		Depths(1, 3).
		Traverse(ids[1], func(Path) bool { visits++; return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled traversal error = %v", err)
	}
	if visits != 0 {
		t.Errorf("cancelled traversal emitted %d paths", visits)
	}
	if got := db.Obs().Counter(CQueriesCancelled).Load(); got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}
	if got := db.Obs().Counter(CQueriesTimedOut).Load(); got != 0 {
		t.Errorf("queries_timed_out = %d, want 0", got)
	}

	// The database stays fully usable after the abort.
	if err := db.NewTraversal().
		Expand(follows, graph.Outgoing).
		Traverse(ids[1], func(Path) bool { return true }); err != nil {
		t.Fatalf("traversal after abort: %v", err)
	}
}

func TestShortestPathHonorsDeadline(t *testing.T) {
	db := openTemp(t)
	ids := seedSocial(t, db)
	follows := db.RelTypeID("follows")
	ex := []Expander{{Type: follows, Dir: graph.Outgoing}}

	ctx, cancel := context.WithTimeout(context.Background(), -1) // already expired
	defer cancel()
	if _, _, err := db.ShortestPathCtx(ctx, ids[1], ids[4], ex, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ShortestPathCtx error = %v", err)
	}
	if got := db.Obs().Counter(CQueriesTimedOut).Load(); got != 1 {
		t.Errorf("queries_timed_out = %d, want 1", got)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, _, err := db.ShortestPathCtx(cctx, ids[1], ids[4], ex, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ShortestPathCtx error = %v", err)
	}
	if got := db.Obs().Counter(CQueriesCancelled).Load(); got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}

	// A nil context and the unbounded wrapper still work.
	p, ok, err := db.ShortestPath(ids[1], ids[4], ex, 5)
	if err != nil || !ok || p.Length() != 2 {
		t.Fatalf("unbounded ShortestPath = (%v, %v, %v)", p, ok, err)
	}
}

func TestCountQueryAbortClassifies(t *testing.T) {
	db := openTemp(t)
	if db.CountQueryAbort(errors.New("plain")) {
		t.Error("plain error counted as an abort")
	}
	if !db.CountQueryAbort(context.Canceled) {
		t.Error("context.Canceled not counted")
	}
	if !db.CountQueryAbort(context.DeadlineExceeded) {
		t.Error("context.DeadlineExceeded not counted")
	}
	if got := db.Obs().Counter(CQueriesCancelled).Load(); got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}
	if got := db.Obs().Counter(CQueriesTimedOut).Load(); got != 1 {
		t.Errorf("queries_timed_out = %d, want 1", got)
	}
}
