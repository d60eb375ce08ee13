package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/obs"
	"twigraph/internal/qstats"
	"twigraph/internal/twitter"
)

// Config tunes the server; the zero value serves with the documented
// defaults (docs/SERVING.md, "Overload tuning").
type Config struct {
	// MaxFrame caps one frame payload (0 = DefaultMaxFrame).
	MaxFrame uint32
	// MaxSessions caps concurrent sessions; connections beyond it are
	// shed at accept with an Overloaded FAILURE (0 = 256).
	MaxSessions int
	// MaxConcurrent is the admission semaphore: queries executing at
	// once, across all sessions and engines (0 = 8).
	MaxConcurrent int
	// MaxQueued bounds how many queries may wait for an admission slot;
	// arrivals beyond it are shed immediately (0 = 2×MaxConcurrent).
	MaxQueued int
	// MaxQueueWait bounds how long a queued query waits for a slot
	// before it is shed (0 = 1s).
	MaxQueueWait time.Duration
	// DefaultQueryTimeout bounds queries whose RUN carries no deadline
	// (0 = unbounded).
	DefaultQueryTimeout time.Duration
	// IdleTimeout reaps sessions with no client traffic (0 = 2min).
	IdleTimeout time.Duration
	// DrainTimeout bounds the graceful phase of Shutdown: how long
	// in-flight queries and streams may finish before connections are
	// force-closed (0 = 10s).
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 2 * c.MaxConcurrent
	}
	if c.MaxQueueWait == 0 {
		c.MaxQueueWait = time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server terminates the wire protocol over any net.Listener and
// executes the catalogue against its registered engines. One goroutine
// per session; per-query producer goroutines are admission-controlled
// by a semaphore with a bounded, time-limited wait queue — beyond
// either bound the query is shed with a typed Overloaded FAILURE
// instead of queueing unboundedly (load shedding, not load absorbing).
type Server struct {
	cfg     Config
	engines map[string]*Engine
	reg     *obs.Registry

	sem     chan struct{}
	queued  atomic.Int64
	drainCh chan struct{} // closed when draining starts

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	sessWG   sync.WaitGroup // session goroutines
	inflight sync.WaitGroup // producer goroutines

	// stats is the serve-level per-statement registry ("engine/query"
	// fingerprints): every served execution records here with its final
	// status, including admission-shed queries that never reached an
	// engine — the per-statement overload view behind /querystats.
	stats *qstats.Stats
	// trace records one Chrome-trace event per served query plus its
	// phase breakdown (queue_wait/execute/first_record/stream/drain),
	// keyed by session id as the track — merged with the engine and
	// driver buffers into one timeline by obs.WriteChromeTrace.
	trace *obs.TraceBuffer

	// accounted dedups engine-level accounting for retried idempotent
	// queries: the first RUN carrying a client-assigned query ID claims
	// the accounting; a replayed RUN with the same ID executes silently.
	accounted *qidSet

	sessID   atomic.Int64
	sessMu   sync.Mutex
	sessions map[int64]*session

	// cached instruments (hot path)
	gSessions   *obs.Gauge
	cSessions   *obs.Counter
	cQueries    *obs.Counter
	cRows       *obs.Counter
	cShed       *obs.Counter
	cPanics     *obs.Counter
	cIdleReaped *obs.Counter
	cCancelled  *obs.Counter
	cTimedOut   *obs.Counter
	cProtoErrs  *obs.Counter
	hLatency    *obs.Histogram
	hAdmitWait  *obs.Histogram

	// per-phase wire attribution histograms (one observation per served
	// query and populated phase; see docs/OBSERVABILITY.md)
	hQueueWait   *obs.Histogram
	hExecute     *obs.Histogram
	hFirstRecord *obs.Histogram
	hStream      *obs.Histogram
	hDrain       *obs.Histogram
}

// NewServer builds a server over the given engines.
func NewServer(cfg Config, engines ...*Engine) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		engines: make(map[string]*Engine, len(engines)),
		reg:     obs.NewRegistry(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		drainCh: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	for _, e := range engines {
		s.engines[e.Name] = e
	}
	s.gSessions = s.reg.Gauge("sessions")
	s.cSessions = s.reg.Counter("sessions_opened")
	s.cQueries = s.reg.Counter("queries")
	s.cRows = s.reg.Counter("rows_streamed")
	s.cShed = s.reg.Counter("shed")
	s.cPanics = s.reg.Counter("panics")
	s.cIdleReaped = s.reg.Counter("idle_reaped")
	s.cCancelled = s.reg.Counter("queries_cancelled")
	s.cTimedOut = s.reg.Counter("queries_timed_out")
	s.cProtoErrs = s.reg.Counter("protocol_errors")
	s.hLatency = s.reg.Histogram("query_latency")
	s.hAdmitWait = s.reg.Histogram("admission_wait")
	s.hQueueWait = s.reg.Histogram("queue_wait")
	s.hExecute = s.reg.Histogram("execute")
	s.hFirstRecord = s.reg.Histogram("first_record")
	s.hStream = s.reg.Histogram("stream")
	s.hDrain = s.reg.Histogram("drain")
	s.stats = qstats.NewStats(0)
	s.trace = obs.NewTraceBuffer(0)
	s.accounted = newQidSet(4096)
	s.sessions = make(map[int64]*session)
	return s
}

// QueryStats exposes the serve-level per-statement registry: one
// "engine/query" fingerprint per catalogue statement, statuses split
// into completed/cancelled/timed_out/failed/shed. Calls here count wire
// attempts, so under retries they exceed the engine registries' calls —
// the gap is the retry amplification.
func (s *Server) QueryStats() *qstats.Stats { return s.stats }

// Trace exposes the server's trace buffer (disabled until
// Trace().SetEnabled(true)); merge it with the engine and driver
// buffers via obs.WriteChromeTrace.
func (s *Server) Trace() *obs.TraceBuffer { return s.trace }

// Metrics exposes the serve_* registry (mount it on the telemetry
// server under scope "serve").
func (s *Server) Metrics() *obs.Registry { return s.reg }

// EngineNames lists the registered engines, in registration-indifferent
// map order.
func (s *Server) EngineNames() []string {
	names := make([]string, 0, len(s.engines))
	for name := range s.engines {
		names = append(names, name)
	}
	return names
}

// Health returns nil when every engine reports healthy.
func (s *Server) Health() error {
	for name, e := range s.engines {
		if e.Health == nil {
			continue
		}
		if err := e.Health(); err != nil {
			return fmt.Errorf("engine %s: %w", name, err)
		}
	}
	return nil
}

// Serve accepts sessions on ln until Shutdown. It returns nil after a
// drain-initiated stop, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrDraining
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		if s.isDraining() {
			conn.Close()
			continue
		}
		if int(s.gSessions.Load()) >= s.cfg.MaxSessions {
			// Shed at accept: one FAILURE so the client backs off with a
			// typed error instead of a bare reset.
			s.cShed.Inc()
			fc := NewFrameConn(conn, s.cfg.MaxFrame)
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			fc.Send(EncodeFailure(Failure{Code: CodeOverloaded, Message: "session limit reached"}))
			conn.Close()
			continue
		}
		s.track(conn)
		s.sessWG.Add(1)
		go s.session(conn)
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Shutdown drains the server: stop accepting, reject new queries with
// ShuttingDown, let in-flight queries and their result streams finish
// within the drain budget (bounded additionally by ctx), then
// force-close the stragglers. It returns nil on a clean drain,
// ctx.Err() when the budget came from a cancelled ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	close(s.drainCh)
	if ln != nil {
		ln.Close()
	}

	budget := time.NewTimer(s.cfg.DrainTimeout)
	defer budget.Stop()
	clean := s.awaitIdle(ctx, budget.C)

	// Force phase: close every remaining connection; blocked reads fail,
	// sessions cancel their contexts, producers abort through the
	// engines' context plumbing.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.sessWG.Wait()
	s.inflight.Wait()
	if !clean && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// awaitIdle polls until no admission slot is held (no query executing
// or streaming), the budget fires, or ctx ends. Idle sessions do not
// hold slots, so they never delay a drain.
func (s *Server) awaitIdle(ctx context.Context, budget <-chan time.Time) bool {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if len(s.sem) == 0 && s.queued.Load() == 0 {
			return true
		}
		select {
		case <-tick.C:
		case <-budget:
			return false
		case <-ctx.Done():
			return false
		}
	}
}

// admit acquires an execution slot: immediately, or by waiting in the
// bounded queue up to MaxQueueWait. Returns ErrOverloaded when either
// bound trips, ErrDraining on shutdown, ctx.Err() when the session died
// while queued.
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	// Bounded wait queue: reserve a queue slot or shed on the spot.
	for {
		n := s.queued.Load()
		if n >= int64(s.cfg.MaxQueued) {
			return ErrOverloaded
		}
		if s.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	defer s.queued.Add(-1)
	start := time.Now()
	wait := time.NewTimer(s.cfg.MaxQueueWait)
	defer wait.Stop()
	select {
	case s.sem <- struct{}{}:
		s.hAdmitWait.ObserveDuration(time.Since(start))
		return nil
	case <-wait.C:
		return ErrOverloaded
	case <-s.drainCh:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// qidSet is a bounded first-seen set of client-assigned query IDs: the
// first RUN with an ID claims engine-level accounting, replays of the
// same ID execute silently. The bound evicts oldest-inserted IDs; a
// replay arriving after eviction re-accounts, which only over-counts —
// never corrupts — and needs thousands of interleaved retried calls.
type qidSet struct {
	mu   sync.Mutex
	cap  int
	seen map[uint64]struct{}
	ring []uint64
	next int
}

func newQidSet(capacity int) *qidSet {
	return &qidSet{cap: capacity, seen: make(map[uint64]struct{}, capacity)}
}

// firstRun reports whether qid is new, marking it seen.
func (q *qidSet) firstRun(qid uint64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.seen[qid]; ok {
		return false
	}
	if len(q.ring) < q.cap {
		q.ring = append(q.ring, qid)
	} else {
		delete(q.seen, q.ring[q.next])
		q.ring[q.next] = qid
		q.next = (q.next + 1) % q.cap
	}
	q.seen[qid] = struct{}{}
	return true
}

// session runs one connection's read loop. Panics anywhere in the
// session (including the codec) are isolated here: counted, the
// connection dropped, the server unharmed.
func (s *Server) session(conn net.Conn) {
	defer s.sessWG.Done()
	defer s.untrack(conn)
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			s.cPanics.Inc()
			fmt.Fprintf(os.Stderr, "serve: session panic (isolated): %v\n", r)
		}
	}()

	s.cSessions.Inc()
	s.gSessions.Add(1)
	defer s.gSessions.Add(-1)

	sessCtx, sessCancel := context.WithCancel(context.Background())
	defer sessCancel()

	fc := NewFrameConn(conn, s.cfg.MaxFrame)
	sess := &session{
		srv: s, fc: fc, ctx: sessCtx, stores: make(map[string]BoundStore),
		id: s.sessID.Add(1), remote: conn.RemoteAddr().String(), opened: time.Now(),
	}
	s.sessMu.Lock()
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	defer func() {
		s.sessMu.Lock()
		delete(s.sessions, sess.id)
		s.sessMu.Unlock()
	}()
	sess.run()
}

// SessionInfo is one live session's state on the /sessions telemetry
// endpoint: identity, lifetime counters, and — while a query is in
// flight — its engine, statement, query ID and wire phase.
type SessionInfo struct {
	ID      int64     `json:"id"`
	Remote  string    `json:"remote"`
	Opened  time.Time `json:"opened"`
	Queries uint64    `json:"queries"`
	// In-flight query attribution; empty/zero when the session is idle.
	Engine  string `json:"engine,omitempty"`
	Query   string `json:"query,omitempty"`
	QueryID uint64 `json:"query_id,omitempty"`
	Phase   string `json:"phase,omitempty"` // queue_wait | execute | stream
}

// Sessions snapshots every live session, ordered by session id.
func (s *Server) Sessions() []SessionInfo {
	s.sessMu.Lock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, ss := range s.sessions {
		out = append(out, ss.info())
	}
	s.sessMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// session is the per-connection protocol state machine.
type session struct {
	srv    *Server
	fc     *FrameConn
	ctx    context.Context
	stores map[string]BoundStore // engine name → session-private handle

	id      int64
	remote  string
	opened  time.Time
	queries atomic.Uint64

	// current in-flight query, for the /sessions live view
	curMu     sync.Mutex
	curEngine string
	curQuery  string
	curQID    uint64
	curPhase  string
}

// setCurrent publishes the in-flight query (empty phase clears it).
func (ss *session) setCurrent(engine, query string, qid uint64, phase string) {
	ss.curMu.Lock()
	if phase == "" {
		ss.curEngine, ss.curQuery, ss.curQID, ss.curPhase = "", "", 0, ""
	} else {
		ss.curEngine, ss.curQuery, ss.curQID, ss.curPhase = engine, query, qid, phase
	}
	ss.curMu.Unlock()
}

func (ss *session) setPhase(phase string) {
	ss.curMu.Lock()
	if ss.curPhase != "" {
		ss.curPhase = phase
	}
	ss.curMu.Unlock()
}

func (ss *session) info() SessionInfo {
	ss.curMu.Lock()
	defer ss.curMu.Unlock()
	return SessionInfo{
		ID: ss.id, Remote: ss.remote, Opened: ss.opened, Queries: ss.queries.Load(),
		Engine: ss.curEngine, Query: ss.curQuery, QueryID: ss.curQID, Phase: ss.curPhase,
	}
}

// recv reads the next client frame under the idle deadline.
func (ss *session) recv() ([]byte, error) {
	ss.fc.Conn.SetReadDeadline(time.Now().Add(ss.srv.cfg.IdleTimeout))
	return ss.fc.Recv()
}

func (ss *session) send(payload []byte) error {
	ss.fc.Conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return ss.fc.Send(payload)
}

func (ss *session) fail(code, msg string) error {
	return ss.send(EncodeFailure(Failure{Code: code, Message: msg}))
}

// run drives handshake then the command loop; returning closes the
// session.
func (ss *session) run() {
	if !ss.handshake() {
		return
	}
	for {
		payload, err := ss.recv()
		if err != nil {
			ss.onReadError(err, false)
			return
		}
		tag, msg, err := DecodeMessage(payload)
		if err != nil {
			ss.srv.cProtoErrs.Inc()
			ss.fail(CodeProtocol, err.Error())
			return
		}
		switch tag {
		case MsgRun:
			if !ss.handleRun(msg.(Run)) {
				return
			}
		case MsgGoodbye:
			return
		default:
			// PULL/DISCARD outside a result stream, or server-only tags.
			ss.srv.cProtoErrs.Inc()
			ss.fail(CodeProtocol, fmt.Sprintf("serve: unexpected message 0x%02x", tag))
			return
		}
	}
}

func (ss *session) handshake() bool {
	payload, err := ss.recv()
	if err != nil {
		ss.onReadError(err, false)
		return false
	}
	hello, err := DecodeHello(payload)
	if err != nil {
		ss.srv.cProtoErrs.Inc()
		ss.fail(CodeProtocol, err.Error())
		return false
	}
	if hello.Version != ProtocolVersion {
		ss.srv.cProtoErrs.Inc()
		ss.fail(CodeProtocol, fmt.Sprintf("serve: protocol version %d not supported", hello.Version))
		return false
	}
	engines := ss.srv.EngineNames()
	return ss.send(EncodeSuccess(Success{Meta: map[string]any{
		"server": "twiserve/1",
		// Feature negotiation: clients gate the RUN trace-context
		// extension on the server advertising it here, so a new driver
		// stays wire-compatible with a pre-extension server.
		"features": []string{FeatureTrace},
		"engines":  engines,
	}})) == nil
}

// onReadError classifies a failed client read: an idle deadline on a
// quiet session is a reap, anything else is the client going away.
func (ss *session) onReadError(err error, streaming bool) {
	var ne net.Error
	if !streaming && errors.As(err, &ne) && ne.Timeout() && !ss.srv.isDraining() {
		ss.srv.cIdleReaped.Inc()
	}
}

// store returns the session-private handle for the engine, creating it
// on first use. Handles are never Closed — they are views over the
// shared database.
func (ss *session) store(eng *Engine) (BoundStore, error) {
	if st, ok := ss.stores[eng.Name]; ok {
		return st, nil
	}
	st, err := eng.NewSession()
	if err != nil {
		return nil, err
	}
	ss.stores[eng.Name] = st
	return st, nil
}

// queryResult carries the producer's outcome to the streaming loop,
// including the execution phase's own wall-time bounds — the streaming
// side cannot infer them, since it may consume the result long after
// the producer finished.
type queryResult struct {
	rows      [][]any
	err       error
	execStart time.Time
	execDur   time.Duration
}

// servedQuery tracks one wire query's per-phase timeline:
//
//	arrival ──queue_wait──► admitted                 (admission)
//	execStart ──execute──► execStart+execDur        (producer)
//	admitted ──first_record──► firstRec             (time to first row on the wire)
//	firstRec ──stream──► lastRec                    (row streaming under PULL credit)
//	last activity ──drain──► finished               (final SUCCESS / teardown)
//
// finishQuery folds the phases into the serve histograms, records the
// execution into the serve-level statement registry, and (when the
// trace buffer is on) emits the query root event plus one event per
// populated phase, all carrying the query ID.
type servedQuery struct {
	engine  string
	query   string
	qid     uint64
	sid     int64
	arrival time.Time

	admitted  time.Time
	execStart time.Time
	execDur   time.Duration
	firstRec  time.Time
	lastRec   time.Time
	rows      int
	status    string // obs.Status*; completed unless a path overrides

	// finish closes the books: it frees the admission slot and records
	// the phases, statistics and trace events. close runs it once,
	// before the terminal frame goes out, so a client that has seen the
	// final SUCCESS or FAILURE also sees the query accounted.
	finish func()
	closed bool
}

// close runs finish once; later calls are no-ops.
func (sq *servedQuery) close() {
	if !sq.closed {
		sq.closed = true
		sq.finish()
	}
}

// noteResult copies the producer's execution bounds (first consumption
// only).
func (sq *servedQuery) noteResult(res *queryResult) {
	if sq.execStart.IsZero() {
		sq.execStart = res.execStart
		sq.execDur = res.execDur
	}
}

// setStatus records the terminal status, first writer wins (an abort
// classified at the stream loop must not be overwritten by teardown).
func (sq *servedQuery) setStatus(status string) {
	if sq.status == "" || sq.status == obs.StatusCompleted {
		sq.status = status
	}
}

// recordShed accounts an admission-shed (or drain-rejected) query that
// never reached an engine: a serve-level statement row with the shed
// status split and, when tracing, a root event marked shed.
func (s *Server) recordShed(sq *servedQuery, status string) {
	now := time.Now()
	wait := now.Sub(sq.arrival)
	s.hQueueWait.ObserveDuration(wait)
	s.stats.Record(qstats.Compute(QueryStatement(sq.engine, sq.query)), wait, 0, status, qstats.Handle{})
	if s.trace.Enabled() {
		s.trace.Complete("serve", QueryStatement(sq.engine, sq.query), sq.sid, sq.arrival, wait,
			map[string]any{"query_id": sq.qid, "status": status})
	}
}

// finishQuery closes the books on one served query: phase histograms,
// the serve-level statement row, and the trace events.
func (s *Server) finishQuery(sq *servedQuery) {
	end := time.Now()
	total := end.Sub(sq.arrival)
	s.hLatency.ObserveDuration(total)

	queueWait := sq.admitted.Sub(sq.arrival)
	s.hQueueWait.ObserveDuration(queueWait)
	lastActivity := sq.admitted
	if !sq.execStart.IsZero() {
		s.hExecute.ObserveDuration(sq.execDur)
		lastActivity = sq.execStart.Add(sq.execDur)
	}
	if !sq.firstRec.IsZero() {
		s.hFirstRecord.ObserveDuration(sq.firstRec.Sub(sq.admitted))
		s.hStream.ObserveDuration(sq.lastRec.Sub(sq.firstRec))
		lastActivity = sq.lastRec
	}
	drain := end.Sub(lastActivity)
	s.hDrain.ObserveDuration(drain)

	status := sq.status
	if status == "" {
		status = obs.StatusCompleted
	}
	s.stats.Record(qstats.Compute(QueryStatement(sq.engine, sq.query)), total, sq.rows, status, qstats.Handle{})

	if !s.trace.Enabled() {
		return
	}
	args := map[string]any{"query_id": sq.qid, "rows": sq.rows}
	if status != obs.StatusCompleted {
		args["status"] = status
	}
	s.trace.Complete("serve", QueryStatement(sq.engine, sq.query), sq.sid, sq.arrival, total, args)
	phase := func(name string, start time.Time, d time.Duration) {
		s.trace.Complete("serve", name, sq.sid, start, d, map[string]any{"query_id": sq.qid})
	}
	phase("queue_wait", sq.arrival, queueWait)
	if !sq.execStart.IsZero() {
		phase("execute", sq.execStart, sq.execDur)
	}
	if !sq.firstRec.IsZero() {
		phase("first_record", sq.admitted, sq.firstRec.Sub(sq.admitted))
		phase("stream", sq.firstRec, sq.lastRec.Sub(sq.firstRec))
	}
	phase("drain", lastActivity, drain)
}

// handleRun executes one query end to end: admission, producer spawn,
// immediate SUCCESS{fields}, then the PULL/DISCARD streaming loop.
// Returns false when the session must close.
func (ss *session) handleRun(run Run) bool {
	srv := ss.srv
	if srv.isDraining() {
		return ss.fail(CodeShutdown, ErrDraining.Error()) == nil
	}
	eng, ok := srv.engines[run.Engine]
	if !ok {
		return ss.fail(CodeQuery, fmt.Sprintf("serve: unknown engine %q", run.Engine)) == nil
	}
	spec, ok := twitter.LookupQuery(run.Query)
	if !ok {
		return ss.fail(CodeQuery, fmt.Sprintf("serve: unknown query %q", run.Query)) == nil
	}
	st, err := ss.store(eng)
	if err != nil {
		return ss.fail(CodeInternal, err.Error()) == nil
	}

	// Adopt the client-assigned query ID (trace-context extension) so
	// every server-side surface — engine qstats, slow ring, log lines,
	// trace events — reports the ID the driver logged; allocate one for
	// pre-extension clients.
	qid := run.QueryID
	clientAssigned := qid != 0
	if !clientAssigned {
		qid = qstats.NextQueryID()
	}
	sq := &servedQuery{engine: run.Engine, query: run.Query, qid: qid, sid: ss.id, arrival: time.Now()}
	ss.queries.Add(1)
	ss.setCurrent(run.Engine, run.Query, qid, "queue_wait")
	defer ss.setCurrent("", "", 0, "")

	if err := srv.admit(ss.ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			srv.cShed.Inc()
			srv.recordShed(sq, obs.StatusShed)
		} else if errors.Is(err, ErrDraining) {
			srv.recordShed(sq, obs.StatusFailed)
		}
		f := failureFor(err)
		return ss.send(EncodeFailure(f)) == nil && !errors.Is(err, context.Canceled)
	}
	srv.cQueries.Inc()
	sq.admitted = time.Now()
	ss.setPhase("execute")

	// The per-query context: session lifetime plus the RUN deadline (or
	// the server default). The store binds it as base context, so the
	// engines' row-granularity checks see cancellation and deadline and
	// count the abort at the detection site.
	timeout := time.Duration(run.TimeoutNanos)
	if timeout <= 0 {
		timeout = srv.cfg.DefaultQueryTimeout
	}
	runCtx, runCancel := context.Background(), context.CancelFunc(func() {})
	if timeout > 0 {
		runCtx, runCancel = context.WithTimeout(ss.ctx, timeout)
	} else {
		runCtx, runCancel = context.WithCancel(ss.ctx)
	}
	runCtx = qstats.WithQueryID(runCtx, qid)
	// Engine-level exactly-once across retries: the first RUN carrying a
	// client-assigned ID claims the accounting (the store wrapper records
	// the execution whatever its outcome); a replay of the same ID — the
	// driver re-running an idempotent read after a transport fault — runs
	// with the accounted mark set, so the engine executes it silently and
	// its qstats, slow ring and histograms still show exactly one
	// execution for that query ID.
	if clientAssigned && spec.Idempotent && !srv.accounted.firstRun(qid) {
		runCtx = qstats.MarkAccounted(runCtx)
	}
	st.SetBaseContext(runCtx)
	st.SetQueryTimeout(0) // deadline owned by runCtx, not the store

	done := make(chan queryResult, 1)
	srv.inflight.Add(1)
	go func() {
		defer srv.inflight.Done()
		execStart := time.Now()
		defer func() {
			if r := recover(); r != nil {
				srv.cPanics.Inc()
				done <- queryResult{err: &ServerError{Code: CodeInternal, Message: fmt.Sprint(r)},
					execStart: execStart, execDur: time.Since(execStart)}
			}
		}()
		if !spec.Idempotent {
			eng.writeMu.Lock()
			defer eng.writeMu.Unlock()
		}
		rows, err := spec.Run(st, run.Params)
		done <- queryResult{rows: rows, err: err, execStart: execStart, execDur: time.Since(execStart)}
	}()

	sq.finish = func() {
		runCancel()
		srv.release()
		srv.finishQuery(sq)
		ss.setCurrent("", "", 0, "")
	}
	defer sq.close()

	// The result-set fields are known from the catalogue before the
	// query computes — answer RUN immediately so the client can send its
	// first PULL while the producer works.
	if ss.send(EncodeSuccess(Success{Meta: map[string]any{
		"fields": append([]string{}, spec.Fields...),
	}})) != nil {
		sq.setStatus(obs.StatusCancelled)
		ss.abort(eng, runCtx, runCancel, done, sq)
		return false
	}

	return ss.stream(eng, runCtx, runCancel, done, sq)
}

// stream is the per-result command loop: PULL releases rows against
// credit, DISCARD drops the rest, anything else is a protocol error.
// Returns false when the session must close.
func (ss *session) stream(eng *Engine, runCtx context.Context, runCancel context.CancelFunc, done chan queryResult, sq *servedQuery) bool {
	srv := ss.srv
	var res queryResult
	have := false    // producer finished
	counted := false // post-execution abort already charged to the engine
	next := 0        // streaming cursor into res.rows

	// countAbort charges an abort the engine could not see (the store
	// call already returned success) exactly once.
	countAbort := func(err error) {
		if !have || res.err != nil || counted {
			return
		}
		counted = true
		if eng.CountAbort != nil {
			eng.CountAbort(err)
		}
	}

	for {
		payload, err := ss.recv()
		if err != nil {
			// Client gone (or stalled past the idle deadline) mid-stream.
			ss.onReadError(err, true)
			ss.abortWith(eng, runCtx, runCancel, done, &res, &have, countAbort, sq)
			return false
		}
		tag, msg, err := DecodeMessage(payload)
		if err != nil {
			srv.cProtoErrs.Inc()
			ss.abortWith(eng, runCtx, runCancel, done, &res, &have, countAbort, sq)
			ss.fail(CodeProtocol, err.Error())
			return false
		}
		switch tag {
		case MsgPull:
			pull := msg.(Pull)
			if !have {
				select {
				case res = <-done:
					have = true
				case <-runCtx.Done():
					// The producer is aborting through the engine's context
					// plumbing; its return both counts (at the engine's
					// detection site) and classifies the failure.
					res = <-done
					have = true
				}
				sq.noteResult(&res)
				if res.err != nil {
					// Engine-side aborts were counted at the detection
					// site during execution; only classify here.
					return ss.failQuery(res.err, sq)
				}
				ss.setPhase("stream")
			}
			// Deadline or cancellation between PULL batches: the rows
			// exist but the query's budget is spent — abort the stream.
			if err := runCtx.Err(); err != nil {
				countAbort(err)
				return ss.failQuery(err, sq)
			}
			n := int(pull.N)
			end := next + n
			if end > len(res.rows) {
				end = len(res.rows)
			}
			for _, row := range res.rows[next:end] {
				if ss.fc.SendBuffered(EncodeRecord(row)) != nil {
					ss.abortWith(eng, runCtx, runCancel, done, &res, &have, countAbort, sq)
					return false
				}
			}
			if end > next {
				if sq.firstRec.IsZero() {
					sq.firstRec = time.Now()
				}
				sq.lastRec = time.Now()
				sq.rows = end
			}
			srv.cRows.Add(uint64(end - next))
			next = end
			hasMore := next < len(res.rows)
			if !hasMore {
				sq.close()
			}
			if ss.send(EncodeSuccess(Success{Meta: map[string]any{"has_more": hasMore}})) != nil {
				if !hasMore {
					// The books already closed this query as completed:
					// every row went out, only the final ack was lost.
					// Leave status and outcome counters as recorded.
					return false
				}
				ss.abortWith(eng, runCtx, runCancel, done, &res, &have, countAbort, sq)
				return false
			}
			if !hasMore {
				return true // result drained; back to the command loop
			}
		case MsgDiscard:
			// A clean client choice, not a fault: cancel a still-running
			// producer (the engine counts that as a cancellation at its
			// detection site), drop the rows, free the slot.
			runCancel()
			if !have {
				res = <-done
				have = true
				sq.noteResult(&res)
			}
			sq.setStatus(obs.StatusCancelled)
			sq.close()
			return ss.send(EncodeSuccess(Success{Meta: map[string]any{"has_more": false}})) == nil
		case MsgGoodbye:
			ss.abortWith(eng, runCtx, runCancel, done, &res, &have, countAbort, sq)
			return false
		default:
			srv.cProtoErrs.Inc()
			ss.abortWith(eng, runCtx, runCancel, done, &res, &have, countAbort, sq)
			ss.fail(CodeProtocol, fmt.Sprintf("serve: unexpected message 0x%02x mid-stream", tag))
			return false
		}
	}
}

// abort cancels the producer and waits it out (no result was consumed
// yet).
func (ss *session) abort(eng *Engine, runCtx context.Context, runCancel context.CancelFunc, done chan queryResult, sq *servedQuery) {
	runCancel()
	res := <-done
	sq.noteResult(&res)
}

// abortWith cancels the producer, drains it if still pending, and
// charges a post-execution abort when the query had already succeeded.
// The serve-level outcome counters tick here too: this path has no
// client left to send a FAILURE to, so failQuery never runs for it.
func (ss *session) abortWith(eng *Engine, runCtx context.Context, runCancel context.CancelFunc, done chan queryResult, res *queryResult, have *bool, countAbort func(error), sq *servedQuery) {
	runCancel()
	if !*have {
		*res = <-done
		*have = true
	}
	sq.noteResult(res)
	err := runCtx.Err()
	if err == nil {
		err = context.Canceled
	}
	countAbort(err)
	if errors.Is(err, context.DeadlineExceeded) {
		ss.srv.cTimedOut.Inc()
		sq.setStatus(obs.StatusTimedOut)
	} else {
		ss.srv.cCancelled.Inc()
		sq.setStatus(obs.StatusCancelled)
	}
}

// failQuery reports a query failure, ticking the serve-level outcome
// counters, and keeps the session alive.
func (ss *session) failQuery(err error, sq *servedQuery) bool {
	f := failureFor(err)
	switch f.Code {
	case CodeTimeout:
		ss.srv.cTimedOut.Inc()
		sq.setStatus(obs.StatusTimedOut)
	case CodeCancelled:
		ss.srv.cCancelled.Inc()
		sq.setStatus(obs.StatusCancelled)
	default:
		sq.setStatus(obs.StatusFailed)
	}
	sq.close()
	return ss.fail(f.Code, f.Message) == nil
}
