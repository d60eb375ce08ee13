// Package driver is the client side of the serving layer: a pooled,
// retrying connection driver for the internal/serve wire protocol. It
// owns the three client-side robustness concerns:
//
//   - connection pooling with health-checked checkout (broken or stale
//     conns are discarded, never handed out),
//   - error classification — transport faults (dial failure, reset,
//     truncated stream) and typed server overload are retryable;
//     query failures and exhausted deadlines are not,
//   - bounded retries with exponential backoff and jitter, gated on
//     the query's idempotence: a read whose connection died mid-call is
//     safely re-run, a write never is (it may have executed).
//
// The driver is synchronous and spawns no goroutines, so a caller that
// returns has nothing left running (the leak tests hold it to that).
package driver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/obs"
	"twigraph/internal/serve"
	"twigraph/internal/twitter"
)

// Config tunes the driver; the zero value works against a local server.
type Config struct {
	// Addr is the server address (host:port).
	Addr string
	// PoolSize caps pooled idle connections (0 = 4).
	PoolSize int
	// DialTimeout bounds connection establishment (0 = 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one attempt end to end, and rides the RUN
	// frame to the server as the query deadline (0 = no per-call bound).
	CallTimeout time.Duration
	// MaxRetries caps re-attempts after the first try (0 = 3; negative
	// = never retry).
	MaxRetries int
	// BaseBackoff is the first retry delay, doubled per retry with
	// jitter (0 = 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (0 = 1s).
	MaxBackoff time.Duration
	// FetchSize is the PULL credit per batch (0 = 256).
	FetchSize int
	// MaxFrame caps inbound frames (0 = serve.DefaultMaxFrame).
	MaxFrame uint32
	// IdleTTL discards pooled conns unused for longer (0 = 60s) — a
	// cheap health check against silently dead sockets.
	IdleTTL time.Duration
	// Dial overrides connection establishment (fault injection hooks in
	// here; nil = net.Dialer).
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Seed makes retry jitter reproducible in tests (0 = 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 4
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = time.Second
	}
	if c.FetchSize == 0 {
		c.FetchSize = 256
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one query's complete answer.
type Result struct {
	Fields []string
	Rows   [][]any
}

// poolConn is one pooled connection with its health bookkeeping.
type poolConn struct {
	fc       *serve.FrameConn
	lastUsed time.Time
	// traceExt records whether the server's HELLO advertised the RUN
	// trace-context extension (serve.FeatureTrace); the driver only
	// sends client-assigned query IDs on connections that did, so a new
	// driver interoperates with a pre-extension server.
	traceExt bool
}

// Client is a pooled driver for one server address. Safe for
// concurrent use.
type Client struct {
	cfg  Config
	pool chan *poolConn
	reg  *obs.Registry

	mu     sync.Mutex
	rng    *rand.Rand
	closed bool

	// trace, when set, receives the driver's span tree per call —
	// checkout, attempt N, backoff, stream — each carrying the call's
	// query ID, on a per-call track. Merged with the server buffers by
	// obs.WriteChromeTrace into one two-sided timeline.
	trace atomic.Pointer[obs.TraceBuffer]

	// clientID salts this client's query-ID namespace; qidSeq numbers
	// the calls within it (see nextQueryID).
	clientID uint64
	qidSeq   atomic.Uint64
	tidSeq   atomic.Int64

	cDials    *obs.Counter
	cRetries  *obs.Counter
	cDiscards *obs.Counter
	cShedSeen *obs.Counter
	hCall     *obs.Histogram
	// call_latency split by retry count: calls answered on the first
	// attempt vs calls that needed at least one retry — the retry
	// amplification view behind the twiserve -drive summary.
	hCallFirst   *obs.Histogram
	hCallRetried *obs.Histogram
}

// clientSeq distinguishes client instances within one process for the
// query-ID namespace salt.
var clientSeq atomic.Uint64

// New creates a client; connections are dialed lazily on first use.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:  cfg,
		pool: make(chan *poolConn, cfg.PoolSize),
		reg:  obs.NewRegistry(),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	// Salt the query-ID namespace per client instance (time × instance
	// counter, mixed): the high bit separates driver-assigned IDs from
	// the server's small sequential IDs, and the salt keeps independent
	// client processes from colliding on the same server.
	h := uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 + clientSeq.Add(1)*0xBF58476D1CE4E5B9
	c.clientID = (h >> 33) & 0x7FFFFFFF
	c.cDials = c.reg.Counter("dials")
	c.cRetries = c.reg.Counter("retries")
	c.cDiscards = c.reg.Counter("conns_discarded")
	c.cShedSeen = c.reg.Counter("overloads_seen")
	c.hCall = c.reg.Histogram("call_latency")
	c.hCallFirst = c.reg.Histogram("call_latency_first_attempt")
	c.hCallRetried = c.reg.Histogram("call_latency_retried")
	return c
}

// Metrics exposes the driver's registry (scope "driver" on the
// telemetry server).
func (c *Client) Metrics() *obs.Registry { return c.reg }

// SetTrace attaches a trace buffer the driver emits its span tree into
// (nil detaches). Events record only while the buffer is enabled.
func (c *Client) SetTrace(b *obs.TraceBuffer) { c.trace.Store(b) }

// traceBuf returns the attached buffer (nil-safe: a nil *TraceBuffer's
// methods are no-ops).
func (c *Client) traceBuf() *obs.TraceBuffer { return c.trace.Load() }

// nextQueryID allocates the next call's query ID:
// 1<<63 | clientID<<32 | seq — never 0, never colliding with the
// server's own sequence, unique across concurrently driving clients.
func (c *Client) nextQueryID() uint64 {
	return 1<<63 | c.clientID<<32 | (c.qidSeq.Add(1) & 0xFFFFFFFF)
}

// Close discards every pooled connection. In-flight calls finish on
// their checked-out conns.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	for {
		select {
		case pc := <-c.pool:
			pc.fc.Conn.Close()
		default:
			return nil
		}
	}
}

// checkout hands out a healthy connection: a pooled one that passes
// the staleness check, or a fresh dial.
func (c *Client) checkout(ctx context.Context) (*poolConn, error) {
	for {
		select {
		case pc := <-c.pool:
			if time.Since(pc.lastUsed) > c.cfg.IdleTTL {
				c.cDiscards.Inc()
				pc.fc.Conn.Close()
				continue
			}
			return pc, nil
		default:
			return c.dial(ctx)
		}
	}
}

// checkin returns a healthy connection to the pool (or closes it when
// the pool is full or the client closed).
func (c *Client) checkin(pc *poolConn) {
	pc.lastUsed = time.Now()
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		pc.fc.Conn.Close()
		return
	}
	select {
	case c.pool <- pc:
	default:
		pc.fc.Conn.Close()
	}
}

// discard closes a connection that saw a transport fault — it never
// re-enters the pool.
func (c *Client) discard(pc *poolConn) {
	c.cDiscards.Inc()
	pc.fc.Conn.Close()
}

// dial opens and handshakes a new connection.
func (c *Client) dial(ctx context.Context) (*poolConn, error) {
	c.cDials.Inc()
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	dialFn := c.cfg.Dial
	if dialFn == nil {
		var d net.Dialer
		dialFn = d.DialContext
	}
	raw, err := dialFn(dctx, "tcp", c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("driver: dial %s: %w", c.cfg.Addr, err)
	}
	fc := serve.NewFrameConn(raw, c.cfg.MaxFrame)
	raw.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	if err := fc.Send(serve.EncodeHello(serve.Hello{Client: "twigraph-driver/1", Version: serve.ProtocolVersion})); err != nil {
		raw.Close()
		return nil, fmt.Errorf("driver: hello: %w", err)
	}
	payload, err := fc.Recv()
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("driver: hello reply: %w", err)
	}
	tag, msg, err := serve.DecodeMessage(payload)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("driver: hello reply: %w", err)
	}
	switch tag {
	case serve.MsgSuccess:
		raw.SetDeadline(time.Time{})
		pc := &poolConn{fc: fc, lastUsed: time.Now()}
		if features, ok := msg.(serve.Success).Meta["features"].([]string); ok {
			for _, f := range features {
				if f == serve.FeatureTrace {
					pc.traceExt = true
				}
			}
		}
		return pc, nil
	case serve.MsgFailure:
		raw.Close()
		f := msg.(serve.Failure)
		return nil, &serve.ServerError{Code: f.Code, Message: f.Message}
	default:
		raw.Close()
		return nil, fmt.Errorf("driver: unexpected hello reply 0x%02x", tag)
	}
}

// Query runs one catalogue query, a twitter.Queries wire name, with
// retries. Retries happen only when Retryable says the error class is
// safe for this query (its entry's Idempotent) — see the package
// comment for the taxonomy.
//
// Every call gets a client-assigned query ID. It rides the RUN frame to
// servers that negotiated the trace extension — every retried attempt
// carries the same ID, so server-side accounting stays exactly-once for
// idempotent reads — and labels every span of the call's trace tree.
func (c *Client) Query(ctx context.Context, engine, query string, p map[string]any) (res *Result, err error) {
	start := time.Now()
	qid := c.nextQueryID()
	tb := c.traceBuf()
	tid := int64(0)
	if tb.Enabled() {
		// One track per call: concurrent calls stay on separate rows of
		// the timeline, and a call's attempts/backoffs nest under its
		// root event.
		tid = c.tidSeq.Add(1)
	}
	attempts := 0
	defer func() {
		d := time.Since(start)
		c.hCall.Observe(int64(d))
		if attempts > 1 {
			c.hCallRetried.Observe(int64(d))
		} else {
			c.hCallFirst.Observe(int64(d))
		}
		if tb.Enabled() {
			args := map[string]any{"query_id": qid, "attempts": attempts}
			if st := obs.StatusFromError(err); st != obs.StatusCompleted {
				args["status"] = st
			}
			tb.Complete("driver", engine+"/"+query, tid, start, d, args)
		}
	}()

	q, ok := twitter.LookupQuery(query)
	idempotent := ok && q.Idempotent
	backoff := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.cRetries.Inc()
			bStart := time.Now()
			if serr := c.sleep(ctx, c.jitter(backoff)); serr != nil {
				return nil, fmt.Errorf("driver: giving up after %d attempts: %w (last error: %v)", attempt, serr, lastErr)
			}
			if tb.Enabled() {
				tb.Complete("driver", "backoff", tid, bStart, time.Since(bStart),
					map[string]any{"query_id": qid})
			}
			backoff *= 2
			if backoff > c.cfg.MaxBackoff {
				backoff = c.cfg.MaxBackoff
			}
		}
		attempts = attempt + 1
		aStart := time.Now()
		res, err = c.attempt(ctx, engine, query, p, qid, tid)
		if tb.Enabled() {
			args := map[string]any{"query_id": qid}
			if err != nil {
				args["error"] = err.Error()
			}
			tb.Complete("driver", fmt.Sprintf("attempt %d", attempts), tid, aStart, time.Since(aStart), args)
		}
		if err == nil {
			return res, nil
		}
		lastErr = err
		if errors.Is(err, serve.ErrOverloaded) {
			c.cShedSeen.Inc()
		}
		if !Retryable(err, idempotent) {
			return nil, err
		}
		if attempt >= c.cfg.MaxRetries {
			return nil, fmt.Errorf("driver: %d attempts exhausted: %w", attempt+1, lastErr)
		}
	}
}

// jitter spreads a backoff uniformly over [d/2, d) so synchronized
// clients do not re-arrive in lockstep after a shed.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt runs the query once on one connection. qid rides the RUN
// frame on trace-negotiated connections; tid tracks the call's trace
// row (0 when tracing is off).
func (c *Client) attempt(ctx context.Context, engine, query string, p map[string]any, qid uint64, tid int64) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tb := c.traceBuf()
	coStart := time.Now()
	pc, err := c.checkout(ctx)
	if tb.Enabled() {
		tb.Complete("driver", "checkout", tid, coStart, time.Since(coStart),
			map[string]any{"query_id": qid})
	}
	if err != nil {
		return nil, err
	}
	// A transport error mid-call poisons the conn; a clean server
	// FAILURE leaves it usable.
	defer func() {
		if err == nil || isServerFailure(err) {
			c.checkin(pc)
		} else {
			c.discard(pc)
		}
	}()

	deadline := time.Time{}
	var timeout time.Duration
	if c.cfg.CallTimeout > 0 {
		deadline = time.Now().Add(c.cfg.CallTimeout)
		timeout = c.cfg.CallTimeout
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
		timeout = time.Until(d)
	}
	pc.fc.Conn.SetDeadline(deadline) // zero clears: call unbounded
	run := serve.Run{Engine: engine, Query: query, Params: p}
	if pc.traceExt {
		run.QueryID = qid
	}
	if timeout > 0 {
		run.TimeoutNanos = int64(timeout)
	}
	if err := pc.fc.Send(serve.EncodeRun(run)); err != nil {
		return nil, fmt.Errorf("driver: send RUN: %w", err)
	}
	meta, err := c.expectSuccess(pc)
	if err != nil {
		return nil, err
	}
	res = &Result{}
	if fields, ok := meta["fields"].([]string); ok {
		res.Fields = fields
	}

	stStart := time.Now()
	defer func() {
		if tb.Enabled() {
			args := map[string]any{"query_id": qid}
			if res != nil {
				args["rows"] = len(res.Rows)
			}
			tb.Complete("driver", "stream", tid, stStart, time.Since(stStart), args)
		}
	}()
	for {
		if err := pc.fc.Send(serve.EncodePull(serve.Pull{N: int64(c.cfg.FetchSize)})); err != nil {
			return nil, fmt.Errorf("driver: send PULL: %w", err)
		}
		hasMore, err := c.readBatch(pc, res)
		if err != nil {
			return nil, err
		}
		if !hasMore {
			return res, nil
		}
	}
}

// readBatch consumes RECORDs until the batch's SUCCESS, returning its
// has_more flag.
func (c *Client) readBatch(pc *poolConn, res *Result) (bool, error) {
	for {
		payload, err := pc.fc.Recv()
		if err != nil {
			return false, fmt.Errorf("driver: stream: %w", err)
		}
		tag, msg, err := serve.DecodeMessage(payload)
		if err != nil {
			return false, fmt.Errorf("driver: stream: %w", err)
		}
		switch tag {
		case serve.MsgRecord:
			res.Rows = append(res.Rows, msg.(serve.Record).Values)
		case serve.MsgSuccess:
			hasMore, _ := msg.(serve.Success).Meta["has_more"].(bool)
			return hasMore, nil
		case serve.MsgFailure:
			f := msg.(serve.Failure)
			return false, &serve.ServerError{Code: f.Code, Message: f.Message}
		default:
			return false, fmt.Errorf("driver: unexpected message 0x%02x in stream", tag)
		}
	}
}

// expectSuccess reads one reply that must be SUCCESS or FAILURE.
func (c *Client) expectSuccess(pc *poolConn) (map[string]any, error) {
	payload, err := pc.fc.Recv()
	if err != nil {
		return nil, fmt.Errorf("driver: reply: %w", err)
	}
	tag, msg, err := serve.DecodeMessage(payload)
	if err != nil {
		return nil, fmt.Errorf("driver: reply: %w", err)
	}
	switch tag {
	case serve.MsgSuccess:
		return msg.(serve.Success).Meta, nil
	case serve.MsgFailure:
		f := msg.(serve.Failure)
		return nil, &serve.ServerError{Code: f.Code, Message: f.Message}
	default:
		return nil, fmt.Errorf("driver: unexpected reply 0x%02x", tag)
	}
}

// isServerFailure reports whether err is a clean FAILURE from the
// server (the connection stayed in protocol) rather than a transport
// fault.
func isServerFailure(err error) bool {
	var se *serve.ServerError
	return errors.As(err, &se)
}

// Retryable classifies an attempt error. Overload and drain sheds are
// always retryable — the server refused the query before executing it,
// write or not. Transport faults (dial failure, reset, EOF, timeout'd
// socket I/O, truncated or corrupted frames) are retryable only for
// idempotent queries: the driver cannot know whether the query executed
// before the connection died. Every other server failure — query
// errors, per-query timeouts, protocol violations — is definitive.
func Retryable(err error, idempotent bool) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDraining) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false // the caller's budget, not the network
	}
	if isServerFailure(err) {
		return false
	}
	if !idempotent {
		return false
	}
	// What's left is transport: dial errors, resets, EOFs, net timeouts,
	// codec errors from a corrupted stream.
	return true
}
