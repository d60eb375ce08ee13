package serve_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twigraph/internal/driver"
	"twigraph/internal/faultconn"
	"twigraph/internal/gen"
	"twigraph/internal/leakcheck"
	"twigraph/internal/load"
	"twigraph/internal/neodb"
	"twigraph/internal/obs"
	"twigraph/internal/qstats"
	"twigraph/internal/serve"
	"twigraph/internal/sparkdb"
	"twigraph/internal/twitter"
)

// buildEngines generates a deterministic dataset, loads both embedded
// engines and wraps them as serving-layer engines. The returned stores
// are the embedded ground truth the served results must match.
func buildEngines(t testing.TB) (*twitter.NeoStore, *twitter.SparkStore, []*serve.Engine) {
	t.Helper()
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	cfg := gen.Default()
	cfg.Users = 300
	cfg.AvgFollowees = 6
	cfg.Hashtags = 30
	cfg.MentionsPer = 0.8
	cfg.TagsPer = 0.6
	if _, err := gen.GenerateStream(cfg, csvDir); err != nil {
		t.Fatal(err)
	}
	neoRes, err := load.BuildNeo(csvDir, filepath.Join(dir, "neo"), neodb.Config{CachePages: 1024}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { neoRes.Store.Close() })
	sparkRes, err := load.BuildSpark(csvDir, sparkdb.ScriptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engines := []*serve.Engine{
		serve.NewNeoEngine(neoRes.Store.DB()),
		serve.NewSparkEngine(sparkRes.Store.DB()),
	}
	return neoRes.Store, sparkRes.Store, engines
}

// TestMidStreamAbortCountsExactlyOnce is the cancellation satellite:
// for both engines, a per-query deadline firing between PULL batches
// and a client vanishing mid-stream each tick the engine's abort
// counter exactly once, the session slot is freed, and the server keeps
// serving.
func TestMidStreamAbortCountsExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	leakcheck.Check(t)
	neo, spark, engines := buildEngines(t)
	addr, srv := startServer(t, serve.Config{}, engines...)

	cases := []struct {
		engine    string
		timedOut  func() uint64
		cancelled func() uint64
	}{
		{"neo",
			func() uint64 { return neo.Obs().Counter("queries_timed_out").Load() },
			func() uint64 { return neo.Obs().Counter("queries_cancelled").Load() }},
		{"sparksee",
			func() uint64 { return spark.Obs().Counter("queries_timed_out").Load() },
			func() uint64 { return spark.Obs().Counter("queries_cancelled").Load() }},
	}

	for _, tc := range cases {
		t.Run(tc.engine+"/timeout-between-pulls", func(t *testing.T) {
			before := tc.timedOut()
			fc := dialRaw(t, addr)
			// A generous-enough deadline for the query itself, short
			// enough to expire while the client dawdles between PULLs.
			if err := fc.Send(serve.EncodeRun(serve.Run{
				Engine: tc.engine, Query: "users_over", TimeoutNanos: int64(120 * time.Millisecond),
				Params: map[string]any{"threshold": int64(0)},
			})); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
				t.Fatalf("RUN reply: tag=0x%02x err=%v", tag, err)
			}
			if err := fc.Send(serve.EncodePull(serve.Pull{N: 5})); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				tag, msg, err := recvMsg(fc)
				if err != nil {
					t.Fatal(err)
				}
				if tag == serve.MsgRecord {
					rows++
					continue
				}
				if tag != serve.MsgSuccess {
					t.Fatalf("first batch: tag=0x%02x %v", tag, msg)
				}
				if hasMore, _ := msg.(serve.Success).Meta["has_more"].(bool); !hasMore {
					t.Fatalf("dataset too small: %d rows, no second batch to abort", rows)
				}
				break
			}
			// Let the per-query deadline pass, then ask for more.
			time.Sleep(200 * time.Millisecond)
			if err := fc.Send(serve.EncodePull(serve.Pull{N: 5})); err != nil {
				t.Fatal(err)
			}
			tag, msg, err := recvMsg(fc)
			if err != nil || tag != serve.MsgFailure {
				t.Fatalf("post-deadline PULL: tag=0x%02x err=%v", tag, err)
			}
			if f := msg.(serve.Failure); f.Code != serve.CodeTimeout {
				t.Fatalf("post-deadline PULL failed with %q, want %q", f.Code, serve.CodeTimeout)
			}
			if got := tc.timedOut() - before; got != 1 {
				t.Fatalf("queries_timed_out ticked %d times, want exactly 1", got)
			}
			// The session survived; the slot is free for the next query.
			if err := fc.Send(serve.EncodeRun(serve.Run{
				Engine: tc.engine, Query: "followees", Params: map[string]any{"uid": int64(1)},
			})); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
				t.Fatalf("follow-up RUN: tag=0x%02x err=%v", tag, err)
			}
			if err := fc.Send(serve.EncodeDiscard()); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
				t.Fatalf("follow-up DISCARD: tag=0x%02x err=%v", tag, err)
			}
		})

		t.Run(tc.engine+"/client-close-mid-stream", func(t *testing.T) {
			before := tc.cancelled()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			fc := serve.NewFrameConn(conn, 0)
			if err := fc.Send(serve.EncodeHello(serve.Hello{Client: "test", Version: serve.ProtocolVersion})); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
				t.Fatalf("handshake: tag=0x%02x err=%v", tag, err)
			}
			if err := fc.Send(serve.EncodeRun(serve.Run{
				Engine: tc.engine, Query: "users_over",
				Params: map[string]any{"threshold": int64(0)},
			})); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
				t.Fatalf("RUN reply: tag=0x%02x err=%v", tag, err)
			}
			if err := fc.Send(serve.EncodePull(serve.Pull{N: 3})); err != nil {
				t.Fatal(err)
			}
			for {
				tag, msg, err := recvMsg(fc)
				if err != nil {
					t.Fatal(err)
				}
				if tag == serve.MsgRecord {
					continue
				}
				if hasMore, _ := msg.(serve.Success).Meta["has_more"].(bool); !hasMore {
					t.Fatal("dataset too small to abandon mid-stream")
				}
				break
			}
			// Vanish with the result half-streamed.
			conn.Close()
			waitFor(t, func() bool { return tc.cancelled() == before+1 }, "queries_cancelled tick")
			// Exactly once: give a double-count a chance to appear.
			time.Sleep(50 * time.Millisecond)
			if got := tc.cancelled() - before; got != 1 {
				t.Fatalf("queries_cancelled ticked %d times, want exactly 1", got)
			}
		})

		t.Run(tc.engine+"/deadline-during-execution", func(t *testing.T) {
			before := tc.timedOut()
			fc := dialRaw(t, addr)
			// 1ns: the deadline passes before the store's first context
			// check — the engine counts the abort at its detection site,
			// the serving layer must not re-count it.
			if err := fc.Send(serve.EncodeRun(serve.Run{
				Engine: tc.engine, Query: "users_over", TimeoutNanos: 1,
				Params: map[string]any{"threshold": int64(0)},
			})); err != nil {
				t.Fatal(err)
			}
			if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
				t.Fatalf("RUN reply: tag=0x%02x err=%v", tag, err)
			}
			if err := fc.Send(serve.EncodePull(serve.Pull{N: 5})); err != nil {
				t.Fatal(err)
			}
			tag, msg, err := recvMsg(fc)
			if err != nil || tag != serve.MsgFailure {
				t.Fatalf("PULL under 1ns deadline: tag=0x%02x err=%v", tag, err)
			}
			if f := msg.(serve.Failure); f.Code != serve.CodeTimeout {
				t.Fatalf("failed with %q, want %q", f.Code, serve.CodeTimeout)
			}
			if got := tc.timedOut() - before; got != 1 {
				t.Fatalf("queries_timed_out ticked %d times, want exactly 1", got)
			}
		})
	}

	snap := srv.Metrics().Snapshot()
	if snap.Counters["queries_timed_out"] == 0 || snap.Counters["queries_cancelled"] == 0 {
		t.Errorf("serve-level abort counters did not tick: %+v", snap.Counters)
	}
}

// chaosProbe is one read query with its embedded ground truth.
type chaosProbe struct {
	query  string
	params twitter.Params
	want   map[string][][]any // engine name → expected rows
}

// TestChaosDifferential is the tentpole acceptance: idempotent reads
// driven through the driver over fault-injected connections (resets,
// partial writes, garbage, stalls) return byte-identical results to the
// embedded stores, on both engines, or fail cleanly — never silently
// wrong.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	leakcheck.Check(t)
	neo, spark, engines := buildEngines(t)
	addr, srv := startServer(t, serve.Config{MaxConcurrent: 8}, engines...)

	// Freeze ground truth from the embedded stores up front, through the
	// table entry the server runs (reads are deterministic; the chaos run
	// makes no writes). Every read of the table is probed.
	var probes []chaosProbe
	for _, uid := range []int64{1, 2, 17, 42, 250} {
		for _, q := range twitter.Queries {
			if !q.Idempotent {
				continue
			}
			spec, _ := twitter.LookupQuery(q.Wire)
			p := twitter.Params{"uid": uid, "uid2": uid*7%300 + 1, "n": int64(5), "threshold": uid % 20,
				"tag": fmt.Sprintf("topic%d", uid%30+1)}
			probe := chaosProbe{q.Wire, p, map[string][][]any{}}
			for _, s := range []twitter.Store{neo, spark} {
				rows, err := spec.Run(s, p)
				if err != nil {
					t.Fatal(err)
				}
				probe.want[s.Name()] = rows
			}
			probes = append(probes, probe)
		}
	}

	faults := faultconn.Config{
		Seed:             42,
		ResetProb:        0.02,
		PartialWriteProb: 0.02,
		GarbageProb:      0.01,
		StallProb:        0.05,
		StallFor:         time.Millisecond,
	}

	// Baseline the engines' accounted executions after ground-truth
	// freezing (direct store calls above are accounted too): the chaos
	// delta below is served work only.
	sumEngineCalls := func() (n uint64) {
		for _, sn := range neo.DB().QueryStats().Snapshot() {
			n += sn.Calls
		}
		for _, sn := range spark.DB().QueryStats().Snapshot() {
			n += sn.Calls
		}
		return n
	}
	accountedBefore := sumEngineCalls()

	const workers = 4
	const iters = 40
	var wg sync.WaitGroup
	var calls, failures, mismatches atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcfg := faults
			wcfg.Seed = faults.Seed + int64(w)*7919
			cli := driver.New(driver.Config{
				Addr:        addr,
				Dial:        faultconn.Dialer(wcfg),
				MaxRetries:  30,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
				FetchSize:   8, // many PULL round-trips: more wire to corrupt
				Seed:        int64(w + 1),
				// A garbled length prefix would otherwise leave the
				// reader waiting for bytes that never come.
				CallTimeout: 2 * time.Second,
			})
			defer cli.Close()
			engNames := []string{"neo", "sparksee"}
			for i := 0; i < iters; i++ {
				probe := probes[(w*iters+i)%len(probes)]
				engine := engNames[(w+i)%2]
				calls.Add(1)
				res, err := cli.Query(context.Background(), engine, probe.query, probe.params)
				if err != nil {
					// Clean failure after exhausted retries is availability
					// loss, not corruption — tolerated in bounded amounts.
					failures.Add(1)
					continue
				}
				got, want := res.Rows, probe.want[engine]
				if len(got) == 0 {
					got = nil
				}
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(got, want) {
					mismatches.Add(1)
					t.Errorf("worker %d: %s(%v) on %s diverged from embedded:\n got %v\nwant %v",
						w, probe.query, probe.params, engine, res.Rows, probe.want[engine])
				}
			}
		}(w)
	}
	wg.Wait()

	if m := mismatches.Load(); m != 0 {
		t.Fatalf("%d results diverged from the embedded stores", m)
	}
	total, failed := calls.Load(), failures.Load()
	if failed*5 > total {
		t.Errorf("%d/%d chaos calls failed outright — retries not absorbing faults", failed, total)
	}

	// Query-id continuity under chaos: retried attempts reuse the
	// client's query id, so the engines account at most one execution per
	// logical call — even though the wire saw every retry. The serve
	// registry keeps the undeduped attempt count; the gap is the retry
	// amplification the faults caused.
	accounted := sumEngineCalls() - accountedBefore
	if accounted > uint64(total) {
		t.Errorf("engines accounted %d executions for %d client calls — retry dedup failed", accounted, total)
	}
	var wireAttempts uint64
	for _, sn := range srv.QueryStats().Snapshot() {
		wireAttempts += sn.Calls
	}
	if wireAttempts < accounted {
		t.Errorf("serve registry saw %d attempts < %d accounted engine executions", wireAttempts, accounted)
	}
	t.Logf("chaos: %d calls, %d clean failures, 0 mismatches; %d wire attempts -> %d accounted engine executions",
		total, failed, wireAttempts, accounted)
}

// TestQueryIDContinuityAcrossRetry is the end-to-end id-continuity
// satellite against real engines: a retried idempotent read (same
// client-assigned query id on a second RUN) executes twice on the wire
// but is accounted exactly once in the engine's per-statement registry
// and appears exactly once in the engine's slow ring — both under the
// client's query id — while returning identical rows on both attempts.
func TestQueryIDContinuityAcrossRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two databases")
	}
	leakcheck.Check(t)
	neo, spark, engines := buildEngines(t)
	addr, srv := startServer(t, serve.Config{}, engines...)

	sumCalls := func(snaps []qstats.StatSnapshot) (n uint64) {
		for _, sn := range snaps {
			n += sn.Calls
		}
		return n
	}
	for _, tc := range []struct {
		engine string
		db     interface {
			Tracer() *obs.Tracer
			QueryStats() *qstats.Stats
		}
	}{{"neo", neo.DB()}, {"sparksee", spark.DB()}} {
		t.Run(tc.engine, func(t *testing.T) {
			tracer := tc.db.Tracer()
			tracer.SetEnabled(true)
			tracer.SetSlowThreshold(0) // ring-record every root span
			tracer.ClearSlowLog()
			before := sumCalls(tc.db.QueryStats().Snapshot())

			qid := uint64(1)<<63 | 0x5A5A<<32 | 1
			if tc.engine == "sparksee" {
				qid++
			}
			fc := dialRaw(t, addr)
			params := map[string]any{"uid": int64(17)}
			first := runAndDrain(t, fc, tc.engine, "followees", params, qid)
			again := runAndDrain(t, fc, tc.engine, "followees", params, qid)
			if first != again {
				t.Fatalf("replay returned %d rows, first attempt %d", again, first)
			}

			if got := sumCalls(tc.db.QueryStats().Snapshot()) - before; got != 1 {
				t.Fatalf("engine accounted %d executions for one client query id, want exactly 1", got)
			}
			var hits int
			for _, sn := range tracer.SlowLog() {
				if sn != nil && sn.QueryID == qid {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("slow ring holds %d entries for qid %#x, want exactly 1", hits, qid)
			}
		})
	}

	// The serve-level registry keeps both wire attempts per engine — the
	// gap against the engine registries is the retry amplification.
	for _, engine := range []string{"neo", "sparksee"} {
		stmt := serve.QueryStatement(engine, "followees")
		var calls uint64
		for _, sn := range srv.QueryStats().Snapshot() {
			if sn.Query == stmt {
				calls = sn.Calls
			}
		}
		if calls != 2 {
			t.Errorf("serve-level calls for %s = %d, want 2 wire attempts", stmt, calls)
		}
	}
}
