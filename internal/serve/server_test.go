package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twigraph/internal/driver"
	"twigraph/internal/leakcheck"
	"twigraph/internal/obs"
	"twigraph/internal/serve"
	"twigraph/internal/twitter"
)

// stubStore is a scriptable BoundStore: Followees returns rows after an
// optional gate (for admission tests), errs on demand, and panics on
// uid 666 (for isolation tests). Everything else returns empty.
type stubStore struct {
	base  context.Context
	block <-chan struct{}
	rows  []int64
	err   error
}

func (s *stubStore) SetBaseContext(ctx context.Context) { s.base = ctx }
func (s *stubStore) SetQueryTimeout(time.Duration)      {}
func (s *stubStore) Name() string                       { return "stub" }
func (s *stubStore) Close() error                       { return nil }

func (s *stubStore) wait() error {
	if s.block != nil {
		done := (<-chan struct{})(nil)
		if s.base != nil {
			done = s.base.Done()
		}
		select {
		case <-s.block:
		case <-done:
			return s.base.Err()
		}
	}
	if s.base != nil && s.base.Err() != nil {
		return s.base.Err()
	}
	return s.err
}

func (s *stubStore) Followees(uid int64) ([]int64, error) {
	if uid == 666 {
		panic("stub: scripted panic")
	}
	if err := s.wait(); err != nil {
		return nil, err
	}
	return s.rows, nil
}

func (s *stubStore) UsersWithFollowersOver(int64) ([]int64, error) { return nil, s.wait() }
func (s *stubStore) TweetsOfFollowees(int64) ([]int64, error)      { return nil, s.wait() }
func (s *stubStore) HashtagsOfFollowees(int64) ([]string, error)   { return nil, s.wait() }
func (s *stubStore) CoMentionedUsers(int64, int) ([]twitter.Counted, error) {
	return nil, s.wait()
}
func (s *stubStore) CoOccurringHashtags(string, int) ([]twitter.CountedTag, error) {
	return nil, s.wait()
}
func (s *stubStore) RecommendFollowees(int64, int) ([]twitter.Counted, error) {
	return nil, s.wait()
}
func (s *stubStore) RecommendFollowersOfFollowees(int64, int) ([]twitter.Counted, error) {
	return nil, s.wait()
}
func (s *stubStore) CurrentInfluence(int64, int) ([]twitter.Counted, error)   { return nil, s.wait() }
func (s *stubStore) PotentialInfluence(int64, int) ([]twitter.Counted, error) { return nil, s.wait() }
func (s *stubStore) ShortestPathLength(int64, int64, int) (int, bool, error) {
	return 0, false, s.wait()
}

// stubEngine wraps scripted stores in an Engine, counting aborts.
type stubEngine struct {
	*serve.Engine
	aborts atomic.Int64
}

func newStubEngine(name string, make func() *stubStore) *stubEngine {
	se := &stubEngine{}
	se.Engine = &serve.Engine{
		Name: name,
		NewSession: func() (serve.BoundStore, error) {
			return make(), nil
		},
		CountAbort: func(err error) bool {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				se.aborts.Add(1)
				return true
			}
			return false
		},
	}
	return se
}

// startServer serves on a loopback listener, shutting down in Cleanup.
func startServer(t *testing.T, cfg serve.Config, engines ...*serve.Engine) (string, *serve.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, ln, cfg, engines...)
}

// serveOn serves on ln, shutting down in Cleanup.
func serveOn(t *testing.T, ln net.Listener, cfg serve.Config, engines ...*serve.Engine) (string, *serve.Server) {
	t.Helper()
	srv := serve.NewServer(cfg, engines...)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// dialRaw opens a handshaked frame connection for protocol-level tests.
func dialRaw(t *testing.T, addr string) *serve.FrameConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fc := serve.NewFrameConn(conn, 0)
	if err := fc.Send(serve.EncodeHello(serve.Hello{Client: "test", Version: serve.ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	tag, _, err := recvMsg(fc)
	if err != nil || tag != serve.MsgSuccess {
		t.Fatalf("handshake: tag=0x%02x err=%v", tag, err)
	}
	return fc
}

func recvMsg(fc *serve.FrameConn) (byte, any, error) {
	payload, err := fc.Recv()
	if err != nil {
		return 0, nil, err
	}
	return serve.DecodeMessage(payload)
}

func TestServeQueryRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{10, 20, 30}}
	})
	addr, _ := startServer(t, serve.Config{}, eng.Engine)

	cli := driver.New(driver.Config{Addr: addr})
	defer cli.Close()
	res, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fields) != 1 || res.Fields[0] != "uid" {
		t.Fatalf("fields: %v", res.Fields)
	}
	want := [][]any{{int64(10)}, {int64(20)}, {int64(30)}}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows: %v", res.Rows)
	}
	for i, row := range want {
		if res.Rows[i][0] != row[0] {
			t.Fatalf("row %d: got %v want %v", i, res.Rows[i], row)
		}
	}
}

func TestStreamingBackpressure(t *testing.T) {
	leakcheck.Check(t)
	rows := make([]int64, 100)
	for i := range rows {
		rows[i] = int64(i)
	}
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{rows: rows} })
	addr, _ := startServer(t, serve.Config{}, eng.Engine)
	fc := dialRaw(t, addr)

	if err := fc.Send(serve.EncodeRun(serve.Run{Engine: "stub", Query: "followees",
		Params: map[string]any{"uid": int64(1)}})); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
		t.Fatalf("RUN reply: tag=0x%02x err=%v", tag, err)
	}
	// Each PULL must release at most its credit, ending in SUCCESS with
	// has_more until the cursor is exhausted.
	seen := 0
	for batch := 0; ; batch++ {
		if err := fc.Send(serve.EncodePull(serve.Pull{N: 7})); err != nil {
			t.Fatal(err)
		}
		records := 0
		for {
			tag, msg, err := recvMsg(fc)
			if err != nil {
				t.Fatal(err)
			}
			if tag == serve.MsgRecord {
				rec := msg.(serve.Record)
				if rec.Values[0] != int64(seen) {
					t.Fatalf("row %d: got %v", seen, rec.Values)
				}
				records++
				seen++
				continue
			}
			if tag != serve.MsgSuccess {
				t.Fatalf("unexpected tag 0x%02x", tag)
			}
			if records > 7 {
				t.Fatalf("batch %d released %d records for credit 7", batch, records)
			}
			hasMore, _ := msg.(serve.Success).Meta["has_more"].(bool)
			if !hasMore {
				if seen != len(rows) {
					t.Fatalf("stream ended at %d/%d rows", seen, len(rows))
				}
				return
			}
			break
		}
	}
}

func TestUnknownQueryAndEngine(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{} })
	addr, _ := startServer(t, serve.Config{}, eng.Engine)
	cli := driver.New(driver.Config{Addr: addr})
	defer cli.Close()

	var se *serve.ServerError
	_, err := cli.Query(context.Background(), "stub", "no_such_query", nil)
	if !errors.As(err, &se) || se.Code != serve.CodeQuery {
		t.Fatalf("unknown query: %v", err)
	}
	_, err = cli.Query(context.Background(), "no_such_engine", "followees", map[string]any{"uid": int64(1)})
	if !errors.As(err, &se) || se.Code != serve.CodeQuery {
		t.Fatalf("unknown engine: %v", err)
	}
	// The session survived both failures.
	if _, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)}); err != nil {
		t.Fatalf("session did not survive query failures: %v", err)
	}
}

// TestOverloadShedding is the acceptance scenario: 2× the admission
// limit in concurrent queries; the excess sheds with typed
// ErrOverloaded, the server stays healthy, nothing stalls or leaks.
func TestOverloadShedding(t *testing.T) {
	leakcheck.Check(t)
	gate := make(chan struct{})
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{1}, block: gate}
	})
	cfg := serve.Config{MaxConcurrent: 2, MaxQueued: 2, MaxQueueWait: 50 * time.Millisecond}
	addr, srv := startServer(t, cfg, eng.Engine)

	const clients = 2 * (2 + 2) // 2× the full admission capacity
	var wg sync.WaitGroup
	var shed, okCount atomic.Int64
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := driver.New(driver.Config{Addr: addr, MaxRetries: -1})
			defer cli.Close()
			_, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)})
			switch {
			case err == nil:
				okCount.Add(1)
			case errors.Is(err, serve.ErrOverloaded):
				shed.Add(1)
			default:
				errs <- err
			}
		}()
	}
	// While overloaded the health check must stay green — shedding is
	// protection, not failure.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Health(); err != nil {
		t.Errorf("health during overload: %v", err)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("unexpected error class: %v", err)
	}
	if got := shed.Load(); got < int64(clients)-4 {
		t.Errorf("shed %d, want >= %d", got, clients-4)
	}
	if okCount.Load() == 0 {
		t.Error("no query succeeded under overload")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters["shed"] == 0 {
		t.Error("shed counter did not tick")
	}
}

// TestRetriedOverloadSucceeds: with retries on, a shed query succeeds
// once capacity frees up — the driver-side half of the acceptance
// scenario.
func TestRetriedOverloadSucceeds(t *testing.T) {
	leakcheck.Check(t)
	gate := make(chan struct{})
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{1}, block: gate}
	})
	cfg := serve.Config{MaxConcurrent: 1, MaxQueued: 0, MaxQueueWait: 10 * time.Millisecond}
	addr, _ := startServer(t, cfg, eng.Engine)

	// Hog the only admission slot...
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		cli := driver.New(driver.Config{Addr: addr, MaxRetries: -1})
		defer cli.Close()
		cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)})
	}()
	time.Sleep(30 * time.Millisecond)
	// ...free it shortly, while the second client is backing off.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	cli := driver.New(driver.Config{Addr: addr, MaxRetries: 10, BaseBackoff: 20 * time.Millisecond})
	defer cli.Close()
	res, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)})
	if err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if cli.Metrics().Snapshot().Counters["retries"] == 0 {
		t.Error("success did not come through a retry")
	}
	<-hogDone
}

func TestGracefulDrain(t *testing.T) {
	leakcheck.Check(t)
	gate := make(chan struct{})
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{7}, block: gate}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{DrainTimeout: 5 * time.Second}, eng.Engine)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Session A holds an in-flight query; session B sits idle.
	fcA := dialRaw(t, addr)
	fcB := dialRaw(t, addr)
	if err := fcA.Send(serve.EncodeRun(serve.Run{Engine: "stub", Query: "followees",
		Params: map[string]any{"uid": int64(1)}})); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := recvMsg(fcA); err != nil || tag != serve.MsgSuccess {
		t.Fatalf("RUN reply: tag=0x%02x err=%v", tag, err)
	}
	if err := fcA.Send(serve.EncodePull(serve.Pull{N: 10})); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Give the drain a moment to start, then: new queries are rejected
	// with the typed drain code...
	time.Sleep(30 * time.Millisecond)
	if err := fcB.Send(serve.EncodeRun(serve.Run{Engine: "stub", Query: "followees",
		Params: map[string]any{"uid": int64(1)}})); err != nil {
		t.Fatal(err)
	}
	tag, msg, err := recvMsg(fcB)
	if err != nil || tag != serve.MsgFailure {
		t.Fatalf("RUN during drain: tag=0x%02x err=%v", tag, err)
	}
	if f := msg.(serve.Failure); f.Code != serve.CodeShutdown {
		t.Fatalf("RUN during drain failed with %q, want %q", f.Code, serve.CodeShutdown)
	}
	// ...while the in-flight query still completes and streams.
	close(gate)
	gotRow := false
	for {
		tag, msg, err := recvMsg(fcA)
		if err != nil {
			t.Fatalf("in-flight stream died during drain: %v", err)
		}
		if tag == serve.MsgRecord {
			gotRow = true
			continue
		}
		if tag != serve.MsgSuccess {
			t.Fatalf("stream tag 0x%02x: %v", tag, msg)
		}
		break
	}
	if !gotRow {
		t.Error("in-flight query lost its rows to the drain")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned: %v", err)
	}
}

func TestSessionCapShedsAtAccept(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{} })
	addr, _ := startServer(t, serve.Config{MaxSessions: 1}, eng.Engine)

	dialRaw(t, addr) // occupies the only session slot

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := serve.NewFrameConn(conn, 0)
	tag, msg, err := recvMsg(fc)
	if err != nil || tag != serve.MsgFailure {
		t.Fatalf("over-cap connect: tag=0x%02x err=%v", tag, err)
	}
	if f := msg.(serve.Failure); f.Code != serve.CodeOverloaded {
		t.Fatalf("over-cap connect failed with %q, want %q", f.Code, serve.CodeOverloaded)
	}
}

func TestPanicIsolation(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{rows: []int64{1}} })
	addr, srv := startServer(t, serve.Config{}, eng.Engine)
	cli := driver.New(driver.Config{Addr: addr})
	defer cli.Close()

	var se *serve.ServerError
	_, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(666)})
	if !errors.As(err, &se) || se.Code != serve.CodeInternal {
		t.Fatalf("panicking query: %v", err)
	}
	// The server and even the session survive.
	if _, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)}); err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	if srv.Metrics().Snapshot().Counters["panics"] != 1 {
		t.Error("panic not counted")
	}
}

func TestProtocolViolationClosesSession(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{} })
	addr, srv := startServer(t, serve.Config{}, eng.Engine)
	fc := dialRaw(t, addr)

	if err := fc.Send([]byte{0xEE, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	tag, msg, err := recvMsg(fc)
	if err != nil || tag != serve.MsgFailure {
		t.Fatalf("garbage tag: tag=0x%02x err=%v", tag, err)
	}
	if f := msg.(serve.Failure); f.Code != serve.CodeProtocol {
		t.Fatalf("code %q, want %q", f.Code, serve.CodeProtocol)
	}
	if _, err := fc.Recv(); err == nil {
		t.Fatal("session stayed open after protocol violation")
	}
	if srv.Metrics().Snapshot().Counters["protocol_errors"] == 0 {
		t.Error("protocol error not counted")
	}
}

func TestIdleReap(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{} })
	addr, srv := startServer(t, serve.Config{IdleTimeout: 50 * time.Millisecond}, eng.Engine)
	fc := dialRaw(t, addr)

	deadline := time.Now().Add(5 * time.Second)
	for {
		fc.Conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := fc.Recv(); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if time.Now().After(deadline) {
					t.Fatal("idle session never reaped")
				}
				continue
			}
			break // server closed us: reaped
		}
	}
	waitFor(t, func() bool {
		return srv.Metrics().Snapshot().Counters["idle_reaped"] == 1
	}, "idle_reaped counter")
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWriteSerialization drives concurrent non-idempotent queries; the
// engine's write mutex must serialize them (the stub observes overlap).
func TestWriteSerialization(t *testing.T) {
	leakcheck.Check(t)
	var inWrite atomic.Int64
	var overlapped atomic.Bool
	eng := &serve.Engine{
		Name: "stub",
		NewSession: func() (serve.BoundStore, error) {
			return &writeProbeStore{stubStore: &stubStore{}, inWrite: &inWrite, overlapped: &overlapped}, nil
		},
	}
	addr, _ := startServer(t, serve.Config{MaxConcurrent: 8}, eng)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := driver.New(driver.Config{Addr: addr})
			defer cli.Close()
			_, err := cli.Query(context.Background(), "stub", "add_user",
				map[string]any{"uid": int64(i), "screen_name": fmt.Sprintf("u%d", i)})
			if err != nil {
				t.Errorf("add_user: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if overlapped.Load() {
		t.Fatal("writes overlapped despite engine write mutex")
	}
}

// writeProbeStore detects concurrent AddUser executions.
type writeProbeStore struct {
	*stubStore
	inWrite    *atomic.Int64
	overlapped *atomic.Bool
}

func (s *writeProbeStore) AddUser(int64, string) error {
	if s.inWrite.Add(1) > 1 {
		s.overlapped.Store(true)
	}
	time.Sleep(2 * time.Millisecond)
	s.inWrite.Add(-1)
	return nil
}
func (s *writeProbeStore) AddFollow(int64, int64) error { return nil }
func (s *writeProbeStore) AddTweet(int64, int64, string, []int64, []string) error {
	return nil
}

// runAndDrain sends one RUN (optionally carrying a client query id)
// and pulls until the stream completes, returning rows seen.
func runAndDrain(t *testing.T, fc *serve.FrameConn, engine, query string, params map[string]any, qid uint64) int {
	t.Helper()
	if err := fc.Send(serve.EncodeRun(serve.Run{
		Engine: engine, Query: query, Params: params, QueryID: qid,
	})); err != nil {
		t.Fatal(err)
	}
	if tag, msg, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
		t.Fatalf("RUN reply: tag=0x%02x msg=%v err=%v", tag, msg, err)
	}
	rows := 0
	for {
		if err := fc.Send(serve.EncodePull(serve.Pull{N: 64})); err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("stream: tag=0x%02x %v", tag, msg)
			}
			if hasMore, _ := msg.(serve.Success).Meta["has_more"].(bool); hasMore {
				break // next PULL
			}
			return rows
		}
	}
}

// TestTraceSessionsAndPhaseAttribution: one traced query leaves (a) a
// root span plus per-phase spans in the server trace buffer, all tagged
// with the client-assigned query id on the session's track, (b) a
// serve-level qstats entry under engine/query, (c) phase histograms
// with observations, and (d) a session entry whose query counter
// ticked.
func TestTraceSessionsAndPhaseAttribution(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{10, 20, 30}}
	})
	addr, srv := startServer(t, serve.Config{}, eng.Engine)
	srv.Trace().SetEnabled(true)

	const qid = uint64(1)<<63 | 7<<32 | 1
	fc := dialRaw(t, addr)
	if rows := runAndDrain(t, fc, "stub", "followees", map[string]any{"uid": int64(1)}, qid); rows != 3 {
		t.Fatalf("rows: %d", rows)
	}

	// (a) trace buffer: root + phases, same query id, same track.
	byName := map[string]obs.TraceEvent{}
	for _, ev := range srv.Trace().Events() {
		byName[ev.Name] = ev
	}
	root, ok := byName["stub/followees"]
	if !ok {
		t.Fatalf("no root span; events: %v", srv.Trace().Events())
	}
	if root.Args["query_id"] != qid {
		t.Fatalf("root query_id %v, want %#x", root.Args["query_id"], qid)
	}
	if got, _ := root.Args["rows"].(int); got != 3 {
		t.Fatalf("root rows arg %v, want 3", root.Args["rows"])
	}
	for _, phase := range []string{"queue_wait", "execute", "first_record", "stream", "drain"} {
		ev, ok := byName[phase]
		if !ok {
			t.Fatalf("missing %q phase span", phase)
		}
		if ev.Args["query_id"] != qid || ev.TID != root.TID {
			t.Fatalf("%q span: qid=%v tid=%d, want qid=%#x tid=%d",
				phase, ev.Args["query_id"], ev.TID, qid, root.TID)
		}
	}

	// (b) serve-level per-statement accounting under engine/query.
	var found bool
	for _, sn := range srv.QueryStats().Snapshot() {
		if sn.Query == serve.QueryStatement("stub", "followees") {
			found = true
			if sn.Calls != 1 || sn.Rows != 3 {
				t.Fatalf("serve stats calls=%d rows=%d, want 1/3", sn.Calls, sn.Rows)
			}
		}
	}
	if !found {
		t.Fatal("no serve-level qstats entry for stub/followees")
	}

	// (c) per-phase histograms observed the query.
	snap := srv.Metrics().Snapshot()
	for _, phase := range []string{"queue_wait", "execute", "first_record", "stream", "drain"} {
		if snap.Histograms[phase].Count == 0 {
			t.Errorf("phase histogram %q never observed", phase)
		}
	}

	// (d) the session is visible with its query counted.
	sessions := srv.Sessions()
	if len(sessions) != 1 {
		t.Fatalf("sessions: %d, want 1", len(sessions))
	}
	if sessions[0].Queries != 1 || sessions[0].Remote == "" {
		t.Fatalf("session info: %+v", sessions[0])
	}
	if sessions[0].Phase != "" {
		t.Fatalf("idle session still attributed to phase %q", sessions[0].Phase)
	}
}

// TestServerAssignsQueryIDForLegacyClients: a RUN without the trace
// extension still gets a query id — server-assigned, outside the
// client namespace (top bit clear).
func TestServerAssignsQueryIDForLegacyClients(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{1}}
	})
	addr, srv := startServer(t, serve.Config{}, eng.Engine)
	srv.Trace().SetEnabled(true)
	fc := dialRaw(t, addr)
	runAndDrain(t, fc, "stub", "followees", map[string]any{"uid": int64(1)}, 0)
	for _, ev := range srv.Trace().Events() {
		if ev.Name != "stub/followees" {
			continue
		}
		qid, _ := ev.Args["query_id"].(uint64)
		if qid == 0 || qid>>63 != 0 {
			t.Fatalf("legacy RUN got query_id %#x, want non-zero server-assigned (top bit clear)", qid)
		}
		return
	}
	t.Fatal("no root span recorded")
}

// TestHandshakeAdvertisesTraceFeature pins the negotiation side of the
// wire extension: the HELLO reply lists the trace feature, which is
// what gates the driver's use of the RUN extension.
func TestHandshakeAdvertisesTraceFeature(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{} })
	addr, _ := startServer(t, serve.Config{}, eng.Engine)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := serve.NewFrameConn(conn, 0)
	if err := fc.Send(serve.EncodeHello(serve.Hello{Client: "test", Version: serve.ProtocolVersion})); err != nil {
		t.Fatal(err)
	}
	tag, msg, err := recvMsg(fc)
	if err != nil || tag != serve.MsgSuccess {
		t.Fatalf("handshake: tag=0x%02x err=%v", tag, err)
	}
	features, _ := msg.(serve.Success).Meta["features"].([]string)
	for _, f := range features {
		if f == serve.FeatureTrace {
			return
		}
	}
	t.Fatalf("HELLO reply did not advertise %q: %v", serve.FeatureTrace, msg.(serve.Success).Meta)
}

// TestClientQueryIDDedupesAccounting: two RUNs with the same
// client-assigned query id (a retry of an idempotent read) both stream
// full results, but the serve registry shows both wire attempts while
// the engine sees only one accounted execution (verified against real
// engines in the integration tests; here the invariant is that the
// replay still returns correct rows).
func TestClientQueryIDDedupesAccounting(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{10, 20}}
	})
	addr, srv := startServer(t, serve.Config{}, eng.Engine)
	const qid = uint64(1)<<63 | 3<<32 | 9
	fc := dialRaw(t, addr)
	for i := 0; i < 2; i++ {
		if rows := runAndDrain(t, fc, "stub", "followees", map[string]any{"uid": int64(1)}, qid); rows != 2 {
			t.Fatalf("attempt %d: rows %d, want 2 (replay must still execute)", i, rows)
		}
	}
	for _, sn := range srv.QueryStats().Snapshot() {
		if sn.Query == serve.QueryStatement("stub", "followees") && sn.Calls != 2 {
			t.Fatalf("serve-level calls %d, want 2 (wire attempts are not deduped)", sn.Calls)
		}
	}
}

// TestShedAccountedPerStatement: admission rejections land in the
// serve-level per-statement registry as a shed split, attributed to the
// statement that was refused.
func TestShedAccountedPerStatement(t *testing.T) {
	leakcheck.Check(t)
	gate := make(chan struct{})
	eng := newStubEngine("stub", func() *stubStore {
		return &stubStore{rows: []int64{1}, block: gate}
	})
	cfg := serve.Config{MaxConcurrent: 1, MaxQueued: 0, MaxQueueWait: 5 * time.Millisecond}
	addr, srv := startServer(t, cfg, eng.Engine)

	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := driver.New(driver.Config{Addr: addr, MaxRetries: -1})
			defer cli.Close()
			_, err := cli.Query(context.Background(), "stub", "followees", map[string]any{"uid": int64(1)})
			if errors.Is(err, serve.ErrOverloaded) {
				shed.Add(1)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if shed.Load() == 0 {
		t.Skip("no shed under this scheduling; nothing to assert")
	}
	var sn, ok = serve.QueryStatement("stub", "followees"), false
	for _, s := range srv.QueryStats().Snapshot() {
		if s.Query != sn {
			continue
		}
		ok = true
		if s.Shed != uint64(shed.Load()) {
			t.Fatalf("statement shed=%d, clients saw %d ErrOverloaded", s.Shed, shed.Load())
		}
		if s.Calls != 4 {
			t.Fatalf("statement calls=%d, want 4 (shed attempts are accounted)", s.Calls)
		}
	}
	if !ok {
		t.Fatalf("no per-statement entry for %s", sn)
	}
}

// cutListener hands out connections whose writes fail, closing the
// connection, once the test arms them.
type cutListener struct {
	net.Listener
	conns chan *cutConn
}

type cutConn struct {
	net.Conn
	armed atomic.Bool
}

func (l cutListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &cutConn{Conn: c}
	l.conns <- cc
	return cc, nil
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		c.Conn.Close()
		return 0, errors.New("cutConn: write after cut")
	}
	return c.Conn.Write(p)
}

// TestFinalAckLossKeepsBooksConsistent: when the connection fails at
// the final SUCCESS of a fully streamed result, the query was already
// accounted as completed. The serve qstats status split, the serve
// outcome counters and the engine's abort counter must all agree.
func TestFinalAckLossKeepsBooksConsistent(t *testing.T) {
	leakcheck.Check(t)
	eng := newStubEngine("stub", func() *stubStore { return &stubStore{} })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := cutListener{Listener: ln, conns: make(chan *cutConn, 1)}
	addr, srv := serveOn(t, cl, serve.Config{}, eng.Engine)
	fc := dialRaw(t, addr)
	server := <-cl.conns

	if err := fc.Send(serve.EncodeRun(serve.Run{
		Engine: "stub", Query: "followees", Params: map[string]any{"uid": int64(1)},
	})); err != nil {
		t.Fatal(err)
	}
	if tag, msg, err := recvMsg(fc); err != nil || tag != serve.MsgSuccess {
		t.Fatalf("RUN reply: tag=0x%02x msg=%v err=%v", tag, msg, err)
	}
	// The result is empty, so the next server write is the final ack.
	server.armed.Store(true)
	if err := fc.Send(serve.EncodePull(serve.Pull{N: 64})); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := recvMsg(fc); err == nil {
		t.Fatalf("final ack arrived (tag=0x%02x) through a cut connection", tag)
	}
	waitFor(t, func() bool { return len(srv.Sessions()) == 0 }, "session teardown")

	var calls, cancelled uint64
	for _, sn := range srv.QueryStats().Snapshot() {
		if sn.Query == serve.QueryStatement("stub", "followees") {
			calls, cancelled = sn.Calls, sn.Cancelled+sn.TimedOut+sn.Failed
		}
	}
	if calls != 1 {
		t.Fatalf("serve qstats calls=%d, want 1", calls)
	}
	counters := srv.Metrics().Snapshot().Counters
	outcome := counters["queries_cancelled"] + counters["queries_timed_out"]
	if cancelled != outcome || outcome != 0 || eng.aborts.Load() != 0 {
		t.Fatalf("books disagree: qstats non-completed=%d, serve outcome counters=%d, engine aborts=%d; want all 0",
			cancelled, outcome, eng.aborts.Load())
	}
}
