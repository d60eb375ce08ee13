package par

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"twigraph/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestRangesPartition(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {3, 8}, {10, 1}, {10, 0},
	} {
		rs := Ranges(tc.n, tc.shards)
		if tc.n == 0 {
			if rs != nil {
				t.Fatalf("Ranges(%d,%d) = %v, want nil", tc.n, tc.shards, rs)
			}
			continue
		}
		covered := 0
		prev := 0
		for _, r := range rs {
			if r.Lo != prev {
				t.Fatalf("Ranges(%d,%d): gap/overlap at %v", tc.n, tc.shards, rs)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("Ranges(%d,%d): empty shard in %v", tc.n, tc.shards, rs)
			}
			covered += r.Hi - r.Lo
			prev = r.Hi
		}
		if covered != tc.n || prev != tc.n {
			t.Fatalf("Ranges(%d,%d) covers %d items: %v", tc.n, tc.shards, covered, rs)
		}
		if tc.shards >= 1 && len(rs) > tc.shards {
			t.Fatalf("Ranges(%d,%d) produced %d shards", tc.n, tc.shards, len(rs))
		}
	}
}

func TestDoVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 1000
		var hits [n]atomic.Int32
		Do(workers, n, Metrics{}, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestRunRangesOrdered(t *testing.T) {
	got := RunRanges(4, 8, Metrics{}, func(lo, hi int) int { return lo })
	want := []int{0, 2, 4, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunRanges shard order = %v, want %v", got, want)
	}
}

func TestCountShardedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := make([]int, 5000)
	for i := range items {
		items[i] = rng.Intn(97)
	}
	visit := func(v int, acc map[int]int64) {
		acc[v]++
		acc[v*2]++ // fan-out: each item contributes to two keys
	}
	want := CountSharded(1, Metrics{}, items, visit)
	for _, workers := range []int{2, 3, 8, 64} {
		got := CountSharded(workers, Metrics{}, items, visit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: counts diverge from sequential", workers)
		}
	}
}

func TestCountShardedEmpty(t *testing.T) {
	got := CountSharded(8, Metrics{}, nil, func(v int, acc map[int]int64) { acc[v]++ })
	if got == nil || len(got) != 0 {
		t.Fatalf("CountSharded on empty input = %v, want empty non-nil map", got)
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	m := MetricsFrom(reg)
	items := make([]int, 100)
	CountSharded(4, m, items, func(v int, acc map[int]int64) { acc[v]++ })
	if got := m.Shards.Load(); got != 4 {
		t.Fatalf("par_shards = %d, want 4", got)
	}
	if m.MergeNanos.Load() == 0 {
		t.Fatalf("par_merge_nanos not recorded")
	}
	// Single-shard inline run still counts its shard but has no merge.
	reg.Reset()
	CountSharded(1, m, items, func(v int, acc map[int]int64) { acc[v]++ })
	if got := m.Shards.Load(); got != 1 {
		t.Fatalf("par_shards after inline run = %d, want 1", got)
	}
}

// TestConcurrentCountSharded exercises the pool from many goroutines at
// once (meaningful under -race).
func TestConcurrentCountSharded(t *testing.T) {
	items := make([]int, 2000)
	for i := range items {
		items[i] = i % 31
	}
	visit := func(v int, acc map[int]int64) { acc[v]++ }
	want := CountSharded(1, Metrics{}, items, visit)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got := CountSharded(4, Metrics{}, items, visit); !reflect.DeepEqual(got, want) {
					t.Error("concurrent CountSharded diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardTraceEvents verifies the trace hook: with a buffer attached
// and enabled, RunRanges emits one complete event per shard on distinct
// timeline rows; disabled buffers record nothing.
func TestShardTraceEvents(t *testing.T) {
	m := MetricsFrom(obs.NewRegistry())
	m.Trace = obs.NewTraceBuffer(64)
	RunRanges(4, 100, m, func(lo, hi int) int { return hi - lo })
	if n := m.Trace.Len(); n != 0 {
		t.Fatalf("disabled buffer recorded %d events", n)
	}
	m.Trace.SetEnabled(true)
	RunRanges(4, 100, m, func(lo, hi int) int { return hi - lo })
	evs := m.Trace.Events()
	if len(evs) != 4 {
		t.Fatalf("shard events = %d, want 4", len(evs))
	}
	tids := map[int64]bool{}
	var items int
	for _, ev := range evs {
		if ev.Cat != "par" || ev.Ph != "X" {
			t.Errorf("event = %+v, want cat par ph X", ev)
		}
		tids[ev.TID] = true
		items += ev.Args["items"].(int)
	}
	if len(tids) != 4 {
		t.Errorf("distinct tids = %d, want 4", len(tids))
	}
	if items != 100 {
		t.Errorf("items sum = %d, want 100", items)
	}
}

// TestMorsels: every morsel runs exactly once at any worker count,
// each worker counts one shard, a failing morsel stops the others from
// claiming more and is the error returned, and worker 0 runs what the
// workers that leave do not.
func TestMorsels(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		m := MetricsFrom(obs.NewRegistry())
		const n = 500
		var seen [n]atomic.Int32
		if err := Morsels(workers, n, m, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d of %d", w, workers)
			}
			seen[i].Add(1)
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("%d workers: morsel %d ran %d times", workers, i, c)
			}
		}
		if got := m.Shards.Load(); got != uint64(workers) {
			t.Errorf("%d workers: par_shards = %d", workers, got)
		}
	}
	if err := Morsels(4, 0, Metrics{}, func(w, i int) error { panic("no morsels") }, nil); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	var ran atomic.Int32
	err := Morsels(4, 10000, Metrics{}, func(w, i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	}, nil)
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() == 10000 {
		t.Error("workers kept claiming morsels after a failure")
	}

	// Forked workers that leave at once leave every morsel to worker 0.
	var by [4]atomic.Int32
	if err := Morsels(4, 100, Metrics{}, func(w, i int) error {
		by[w].Add(1)
		return nil
	}, func(w int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if by[0].Load() != 100 {
		t.Errorf("worker 0 ran %d of 100 morsels after the others left", by[0].Load())
	}
}
