package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twigraph/internal/driver"
	"twigraph/internal/obs"
	"twigraph/internal/qstats"
	"twigraph/internal/serve"
	"twigraph/internal/twitter"
)

const (
	// servedWarmup is how long arrivals run before measurement starts.
	servedWarmup = 500 * time.Millisecond
	// servedWindow is the span completed-op rates are counted over.
	servedWindow = 500 * time.Millisecond
	// maxInflight bounds the page views in flight to the server's
	// default admission limit (serve.Config.MaxConcurrent): an arrival
	// that finds every slot busy waits, and the wait is part of its
	// latency. Without a bound, a stall of the machine releases a burst
	// that the server sheds and the driver retries after a backoff.
	maxInflight = 8
)

// engineWire names the engines as the serving layer registers them.
var engineWire = [2]string{"neo", "sparksee"}

// servedStats is what the served workload measures beyond the per-engine
// results.
type servedStats struct {
	measuring atomic.Bool
	storeSum  atomic.Int64 // ns inside store calls while tracing

	storeCalls, driverCalls, late latencies
	phases                        map[string]obs.HistogramSnapshot
	shed, retries                 uint64

	// traced phase: sums over its ops, for the self-time split
	traced                               int
	lateSum, driverSum, serveSum, latSum time.Duration
	untracedMeanMS, tracedMeanMS         float64
	srvTrace, drvTrace                   *obs.TraceBuffer
}

// storeTap times every workload call of the store handles the server's
// sessions get, from outside the store.
type storeTap struct {
	bn  *bench
	e   int
	st  *servedStats
	run *engineRun
}

func (t *storeTap) record(id string, start time.Time, ctx context.Context) {
	end := time.Now()
	d := end.Sub(start)
	if t.st.measuring.Load() {
		t.st.storeCalls.add(d)
		t.run.observe(id, d)
	}
	if t.bn.rec.enabled() {
		t.st.storeSum.Add(int64(d))
		var qid uint64
		if ctx != nil {
			qid = qstats.QueryID(ctx)
		}
		t.bn.rec.add(span{layer: "twitter", name: id, parent: -1, lane: int64(100 + t.e), start: start, end: end,
			args: map[string]any{"query_id": qid, "engine": t.run.name}})
	}
}

// tapEngine makes every session of eng use a timed store handle.
func tapEngine(eng *serve.Engine, tap *storeTap) *serve.Engine {
	inner := eng.NewSession
	eng.NewSession = func() (serve.BoundStore, error) {
		st, err := inner()
		if err != nil {
			return nil, err
		}
		return &timedStore{BoundStore: st, tap: tap}, nil
	}
	return eng
}

// timedStore is a session store handle whose workload calls are timed.
type timedStore struct {
	serve.BoundStore
	tap *storeTap
	ctx context.Context
}

func (t *timedStore) SetBaseContext(ctx context.Context) {
	t.ctx = ctx
	t.BoundStore.SetBaseContext(ctx)
}

func (t *timedStore) done(id string, start time.Time) { t.tap.record(id, start, t.ctx) }

func (t *timedStore) UsersWithFollowersOver(th int64) ([]int64, error) {
	defer t.done("Q1.1", time.Now())
	return t.BoundStore.UsersWithFollowersOver(th)
}

func (t *timedStore) Followees(uid int64) ([]int64, error) {
	defer t.done("Q2.1", time.Now())
	return t.BoundStore.Followees(uid)
}

func (t *timedStore) TweetsOfFollowees(uid int64) ([]int64, error) {
	defer t.done("Q2.2", time.Now())
	return t.BoundStore.TweetsOfFollowees(uid)
}

func (t *timedStore) HashtagsOfFollowees(uid int64) ([]string, error) {
	defer t.done("Q2.3", time.Now())
	return t.BoundStore.HashtagsOfFollowees(uid)
}

func (t *timedStore) CoMentionedUsers(uid int64, n int) ([]twitter.Counted, error) {
	defer t.done("Q3.1", time.Now())
	return t.BoundStore.CoMentionedUsers(uid, n)
}

func (t *timedStore) CoOccurringHashtags(tag string, n int) ([]twitter.CountedTag, error) {
	defer t.done("Q3.2", time.Now())
	return t.BoundStore.CoOccurringHashtags(tag, n)
}

func (t *timedStore) RecommendFollowees(uid int64, n int) ([]twitter.Counted, error) {
	defer t.done("Q4.1", time.Now())
	return t.BoundStore.RecommendFollowees(uid, n)
}

func (t *timedStore) RecommendFollowersOfFollowees(uid int64, n int) ([]twitter.Counted, error) {
	defer t.done("Q4.2", time.Now())
	return t.BoundStore.RecommendFollowersOfFollowees(uid, n)
}

func (t *timedStore) CurrentInfluence(uid int64, n int) ([]twitter.Counted, error) {
	defer t.done("Q5.1", time.Now())
	return t.BoundStore.CurrentInfluence(uid, n)
}

func (t *timedStore) PotentialInfluence(uid int64, n int) ([]twitter.Counted, error) {
	defer t.done("Q5.2", time.Now())
	return t.BoundStore.PotentialInfluence(uid, n)
}

func (t *timedStore) ShortestPathLength(a, b int64, maxHops int) (int, bool, error) {
	defer t.done("Q6.1", time.Now())
	return t.BoundStore.ShortestPathLength(a, b, maxHops)
}

// arrival is one scheduled page view of the open loop: the point reads
// of one user, issued one after another on one engine, as a client
// rendering that user's page would.
type arrival struct {
	e, page                             int
	lane                                int64
	sched, dispatch, callStart, callEnd time.Time
	calls                               [][2]time.Time // start and end of each driver call
	rows                                [][][]any      // each call's result, digested after the phase
	err                                 error
}

// latency runs from when the page view was due to the end of its last
// read, so a stall also delays the page views scheduled behind it.
func (a *arrival) latency() time.Duration {
	if a.err != nil {
		return failLatency
	}
	return a.callEnd.Sub(a.sched)
}

// arrivals runs an open loop for dur from start at the given interval:
// page view i is due at start+i*interval whatever happened to earlier
// ones. Consecutive arrivals alternate engines; each engine walks the
// pages in order, continuing from arrival number first. It returns once
// every page view has completed.
func arrivals(client *driver.Client, pages [][]*op, first int, start time.Time, dur, interval time.Duration) []arrival {
	out := make([]arrival, int(dur/interval))
	slots := make(chan int64, maxInflight)
	for i := 0; i < maxInflight; i++ {
		slots <- int64(i)
	}
	var wg sync.WaitGroup
	for i := range out {
		a := &out[i]
		g := first + i
		a.e, a.page = g%2, (g/2)%len(pages)
		a.sched = start.Add(time.Duration(i) * interval)
		// Go's timers wake an idle process on millisecond ticks, so the
		// generator can be up to a millisecond late; that lateness is part
		// of the latency and is also reported on its own.
		time.Sleep(time.Until(a.sched))
		a.lane = <-slots
		a.dispatch = time.Now()
		wg.Add(1)
		go func(a *arrival) {
			defer wg.Done()
			defer func() { slots <- a.lane }()
			ctx, cancel := context.WithTimeout(context.Background(), failLatency)
			defer cancel()
			a.callStart = time.Now()
			for _, o := range pages[a.page] {
				t := time.Now()
				res, err := client.Query(ctx, engineWire[a.e], o.q.wire, o.params())
				a.calls = append(a.calls, [2]time.Time{t, time.Now()})
				if err != nil {
					a.err = err
					break
				}
				a.rows = append(a.rows, res.Rows)
			}
			a.callEnd = time.Now()
		}(a)
	}
	wg.Wait()
	return out
}

// servedPages builds the served_point pages: the point reads of every
// sampled user.
func servedPages(users []int64) [][]*op {
	pages := make([][]*op, len(users))
	idx := 0
	for i, uid := range users {
		for _, q := range pointReads {
			pages[i] = append(pages[i], &op{q: q, idx: idx, uid: uid})
			idx++
		}
	}
	return pages
}

// runServed drives served_point: an open loop at a fixed arrival rate
// through an in-process server on loopback and one pooled driver client.
// Every served result is checked against the embedded result of the same
// op on the same engine, and the two engines' embedded results against
// each other.
func (bn *bench) runServed(users []int64) error {
	pages := servedPages(users)
	var ops []*op
	for _, p := range pages {
		ops = append(ops, p...)
	}
	var ref [2][]uint64
	for e := range ref {
		ref[e] = make([]uint64, len(ops))
		for _, o := range ops {
			rows, err := o.q.call(bn.stores[e], o)
			if err != nil {
				return fmt.Errorf("%s: embedded %s: %w", bn.runs[e].name, o.q.id, err)
			}
			ref[e][o.idx] = digest(rows)
		}
	}
	for _, o := range ops {
		if ref[0][o.idx] != ref[1][o.idx] {
			bn.mismatch(o, "spark", ref[1][o.idx], ref[0][o.idx])
		}
	}

	st := &servedStats{}
	bn.served = st
	var taps [2]*storeTap
	for e := range taps {
		taps[e] = &storeTap{bn: bn, e: e, st: st, run: bn.runs[e]}
	}
	srv := serve.NewServer(serve.Config{},
		tapEngine(serve.NewNeoEngine(bn.b.neo.DB()), taps[0]),
		tapEngine(serve.NewSparkEngine(bn.b.spark.DB()), taps[1]))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	client := driver.New(driver.Config{Addr: ln.Addr().String(), PoolSize: runtime.NumCPU()})
	defer func() {
		client.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()

	interval := time.Duration(float64(time.Second) / bn.opt.rate)
	next := 0
	phase := func(dur time.Duration) ([]arrival, time.Time) {
		start := time.Now().Add(time.Millisecond)
		arr := arrivals(client, pages, next, start, dur, interval)
		next += len(arr)
		bn.checkServed(arr, pages, ref)
		return arr, start
	}
	phase(servedWarmup)

	srv.Metrics().Reset()
	retries0 := client.Metrics().Counter("retries").Load()
	st.measuring.Store(true)
	bn.startMeasure()
	if !bn.tracing() {
		arr, start := phase(bn.opt.duration())
		bn.countServed(arr, start, bn.opt.duration())
	} else {
		// Untraced first half, then the traced half: every layer that
		// records spans is switched on between the two, once the
		// untraced requests have all completed.
		half := bn.opt.duration() / 2
		arr, start := phase(half)
		bn.countServed(arr, start, half)
		st.untracedMeanMS = meanLatencyMS(arr)

		st.srvTrace = srv.Trace()
		st.drvTrace = obs.NewTraceBuffer(1 << 18)
		client.SetTrace(st.drvTrace)
		serve0 := srv.Metrics().Histogram("query_latency").Sum()
		bn.rec.setEnabled(true)
		st.srvTrace.SetEnabled(true)
		st.drvTrace.SetEnabled(true)
		arr, start = phase(half)
		st.drvTrace.SetEnabled(false)
		st.srvTrace.SetEnabled(false)
		st.serveSum = time.Duration(srv.Metrics().Histogram("query_latency").Sum() - serve0)
		bn.countServed(arr, start, half)
		st.tracedMeanMS = meanLatencyMS(arr)
		bn.traceServed(arr, pages)
		bn.rec.setEnabled(false)
	}
	bn.stopMeasure()
	st.measuring.Store(false)

	st.phases = map[string]obs.HistogramSnapshot{}
	for _, name := range []string{"queue_wait", "execute", "first_record", "stream"} {
		st.phases[name] = srv.Metrics().Histogram(name).Snapshot()
	}
	st.shed = srv.Metrics().Counter("shed").Load()
	st.retries = client.Metrics().Counter("retries").Load() - retries0
	return nil
}

// checkServed holds every served result to the embedded result of the
// same op on the same engine. It runs once a phase is over, so the
// oracle's work stays out of the served latencies.
func (bn *bench) checkServed(arr []arrival, pages [][]*op, ref [2][]uint64) {
	for i := range arr {
		a := &arr[i]
		page := pages[a.page]
		if a.err != nil {
			bn.fail(bn.runs[a.e].name, page[len(a.rows)].q.id, a.err)
		}
		for j, rows := range a.rows {
			if o, dg := page[j], digest(rows); dg != ref[a.e][o.idx] {
				bn.mismatch(o, bn.runs[a.e].name+" (served)", dg, ref[a.e][o.idx])
			}
		}
		a.rows = nil
	}
}

// countServed folds a measured phase into the per-engine results. The
// completed rate of each window is the number of completions in it over
// the time between its first and last completion.
func (bn *bench) countServed(arr []arrival, start time.Time, dur time.Duration) {
	st := bn.served
	nw := int(dur / servedWindow)
	type window struct {
		n           int
		first, last time.Time
	}
	wins := make([][2]window, nw)
	for i := range arr {
		a := &arr[i]
		er := bn.runs[a.e]
		er.attempted++
		er.ops++
		er.lat.add(a.sched, a.latency())
		st.late.add(a.dispatch.Sub(a.sched))
		for _, c := range a.calls {
			st.driverCalls.add(c[1].Sub(c[0]))
		}
		if a.err != nil {
			er.failed++
			continue
		}
		k := int(a.callEnd.Sub(start) / servedWindow)
		if k < 0 || k >= nw {
			continue
		}
		w := &wins[k][a.e]
		if w.n == 0 || a.callEnd.Before(w.first) {
			w.first = a.callEnd
		}
		if a.callEnd.After(w.last) {
			w.last = a.callEnd
		}
		w.n++
	}
	for _, ws := range wins {
		for e, w := range ws {
			if w.n > 1 && w.last.After(w.first) {
				bn.runs[e].rates = append(bn.runs[e].rates, float64(w.n-1)/w.last.Sub(w.first).Seconds())
			}
		}
	}
}

// traceServed records the traced phase's client-side spans and sums the
// pieces each request's latency splits into.
func (bn *bench) traceServed(arr []arrival, pages [][]*op) {
	st := bn.served
	for i := range arr {
		a := &arr[i]
		if a.err != nil {
			continue
		}
		id := bn.nextOp()
		bn.rec.add(span{layer: "loadgen", name: engineWire[a.e], op: id, parent: -1, lane: a.lane, start: a.sched, end: a.callStart})
		for j, c := range a.calls {
			name := engineWire[a.e] + "/" + pages[a.page][j].q.wire
			bn.rec.add(span{layer: "driver", name: name, op: id, parent: -1, lane: a.lane, start: c[0], end: c[1]})
			st.driverSum += c[1].Sub(c[0])
		}
		st.traced++
		st.lateSum += a.callStart.Sub(a.sched)
		st.latSum += a.latency()
	}
}

func meanLatencyMS(arr []arrival) float64 {
	var l latencies
	for i := range arr {
		l.add(arr[i].latency())
	}
	return l.mean()
}

// traceProcesses returns the serving layer's own trace buffers, merged
// into the written trace next to the benchmark's spans.
func (bn *bench) traceProcesses() []obs.TraceProcess {
	if bn.served == nil || bn.served.srvTrace == nil {
		return nil
	}
	return []obs.TraceProcess{{Name: "serve", Buf: bn.served.srvTrace}, {Name: "driver", Buf: bn.served.drvTrace}}
}
