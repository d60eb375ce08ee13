package main

import (
	"fmt"
	"runtime"
	"time"

	"twigraph/internal/gen"
	"twigraph/internal/twitter"
)

// feedEvents is the number of live-feed events in one round of
// embedded_feed_rw.
const feedEvents = 100

// tagSpan is how many of the most popular hashtags Q3.2 cycles through.
const tagSpan = 100

// thresholds are the Q1.1 follower thresholds, one per block in turn.
var thresholds = []int64{10, 20, 50, 100}

// analyticUsersPerRound is how many sampled users one analytic round
// covers: one hub and the rest from the sweep.
const analyticUsersPerRound = 4

// analyticOps builds the embedded_analytic op list, one block per round:
// the Table 2 mix for analyticUsersPerRound sampled users, with Q1.1 (a
// scan of every user, whatever the source) once per block. Q6.1 targets
// the next user of the block. Q1.1 thresholds and Q3.2 hashtags are the
// same for every seed, so only the users and the graph vary with it.
func analyticOps(hubs, sweep []int64) [][]*op {
	per := analyticUsersPerRound - 1
	blocks := make([][]*op, len(hubs))
	idx := 0
	for b, hub := range hubs {
		users := append([]int64{hub}, sweep[b*per:(b+1)*per]...)
		for i, uid := range users {
			for _, q := range table2 {
				if q == q11 && i > 0 {
					continue
				}
				blocks[b] = append(blocks[b], &op{
					q: q, idx: idx, uid: uid, uid2: users[(i+1)%len(users)],
					tag:       fmt.Sprintf("topic%d", 1+(idx*37)%tagSpan),
					threshold: thresholds[b%len(thresholds)],
				})
				idx++
			}
		}
	}
	return blocks
}

// round is one engine's pass over a block of ops.
type round struct {
	e                int
	measured         bool // counts toward the metrics (not a warm-up round)
	traced           bool // records spans
	ops, writes      int
	calls, writeTime time.Duration // time inside store calls / write calls
	start            time.Time
	memBefore        runtime.MemStats
}

func newRound(e int, measured, traced bool) *round {
	return &round{e: e, measured: measured, traced: traced, memBefore: readMem(), start: time.Now()}
}

// endRound folds a finished round into its engine's results.
func (bn *bench) endRound(r *round) {
	wall := time.Since(r.start)
	if !r.measured || r.ops == 0 {
		return
	}
	er := bn.runs[r.e]
	er.mem.add(r.memBefore, readMem())
	if r.traced {
		er.tracedRts = append(er.tracedRts, float64(r.ops)/wall.Seconds())
		return
	}
	er.rates = append(er.rates, float64(r.ops)/r.calls.Seconds())
	er.wallRates = append(er.wallRates, float64(r.ops)/wall.Seconds())
	if r.writes > 0 {
		er.writeRts = append(er.writeRts, float64(r.writes)/r.writeTime.Seconds())
	}
}

// openSpan starts the loadgen span of op id when round r is traced and
// returns its index (-1 otherwise); closeSpan ends it. Store calls made
// for the op record their spans as its children.
func (bn *bench) openSpan(r *round, name string, id int64) int {
	if !r.traced {
		return -1
	}
	now := time.Now()
	return bn.rec.add(span{layer: "loadgen", name: name, op: id, parent: -1, lane: int64(r.e + 1), start: now, end: now})
}

func (bn *bench) closeSpan(i int) { bn.rec.end(i, time.Now()) }

// issue runs one read on engine e within round r and checks its result
// against ref[o.idx]: the first engine to run an op fills the reference
// (have marks filled slots), every later run must match it. It returns
// when the call started and how long it took.
func (bn *bench) issue(r *round, o *op, id int64, parent int, ref []uint64, have []bool) (time.Time, time.Duration, error) {
	start := time.Now()
	rows, err := o.q.call(bn.stores[r.e], o)
	d := time.Since(start)
	if r.traced {
		bn.rec.add(span{layer: "twitter", name: o.q.id, op: id, parent: parent, lane: int64(r.e + 1), start: start, end: start.Add(d)})
	}
	if err == nil {
		dg := digest(rows)
		if !have[o.idx] {
			ref[o.idx], have[o.idx] = dg, true
		} else if dg != ref[o.idx] {
			bn.mismatch(o, bn.runs[r.e].name, dg, ref[o.idx])
		}
	}
	bn.observe(r, o.q.id, d, err)
	return start, d, err
}

// observe records one store call: its time in the per-query means of a
// measured round, or its failure.
func (bn *bench) observe(r *round, id string, d time.Duration, err error) {
	if err != nil {
		bn.fail(bn.runs[r.e].name, id, err)
		return
	}
	if r.measured {
		bn.runs[r.e].observe(id, d)
	}
}

// count records one op of a measured round: d is the time its store
// calls took, err the first of their errors.
func (bn *bench) count(r *round, start time.Time, d time.Duration, err error) {
	if !r.measured {
		return
	}
	er := bn.runs[r.e]
	er.attempted++
	r.ops++
	r.calls += d
	er.ops++
	if err != nil {
		er.failed++
		er.lat.add(start, failLatency)
		return
	}
	er.lat.add(start, d)
}

// runAnalytic drives embedded_analytic: a closed loop with one client
// issuing the Table 2 mix. A discarded warm-up pass runs every op on
// both engines and fixes the reference digests; measured rounds then
// alternate engines, one block per round, with the first engine of each
// pair alternating too.
func (bn *bench) runAnalytic(hubs, sweep []int64) error {
	blocks := analyticOps(hubs, sweep)
	n := 0
	for _, blk := range blocks {
		n += len(blk)
	}
	ref, have := make([]uint64, n), make([]bool, n)
	for _, blk := range blocks {
		for e := 0; e < 2; e++ {
			r := newRound(e, false, false)
			for _, o := range blk {
				bn.analyticOp(r, o, ref, have)
			}
			bn.endRound(r)
		}
	}
	bn.startMeasure()
	deadline := time.Now().Add(bn.opt.duration())
	for k := 0; time.Now().Before(deadline); k++ {
		// Traced and untraced rounds alternate by whole passes, so both
		// cover the same blocks.
		traced := bn.tracing() && (k/len(blocks))%2 == 1
		bn.rec.setEnabled(traced)
		blk := blocks[k%len(blocks)]
		for j := 0; j < 2; j++ {
			r := newRound((k+j)%2, true, traced)
			for _, o := range blk {
				bn.analyticOp(r, o, ref, have)
			}
			bn.endRound(r)
		}
	}
	bn.rec.setEnabled(false)
	bn.stopMeasure()
	return nil
}

// analyticOp is one op of embedded_analytic: a single Table 2 query.
func (bn *bench) analyticOp(r *round, o *op, ref []uint64, have []bool) {
	id := bn.nextOp()
	p := bn.openSpan(r, o.q.id, id)
	start, d, err := bn.issue(r, o, id, p, ref, have)
	bn.closeSpan(p)
	bn.count(r, start, d, err)
}

// runFeed drives embedded_feed_rw: a closed loop with one client that
// applies the live feed through twitter.Apply and, after each event,
// reads the acting user's followees (Q2.1) and their tweets (Q2.2). Each
// round applies the next feedEvents events to one engine; the other
// engine applies the same events in the next round, so both stay in step
// and every read is checked against the other engine's answer.
func (bn *bench) runFeed() error {
	stream := gen.NewStream(bn.b.cfg, bn.b.sum)
	var deadline time.Time
	for k := 0; ; k++ {
		measured := k > 0
		if k == 1 {
			bn.startMeasure()
			deadline = time.Now().Add(bn.opt.duration())
		}
		if measured && !time.Now().Before(deadline) {
			break
		}
		traced := bn.tracing() && measured && k%2 == 0
		bn.rec.setEnabled(traced)
		events := stream.Take(feedEvents)
		n := len(events) * len(timelineReads)
		ref, have := make([]uint64, n), make([]bool, n)
		for j := 0; j < 2; j++ {
			r := newRound((k+j)%2, measured, traced)
			err := bn.feedRound(r, events, ref, have)
			bn.endRound(r)
			if err != nil {
				return err
			}
		}
	}
	bn.rec.setEnabled(false)
	bn.stopMeasure()
	return nil
}

// feedRound applies events to one engine. An op is what a client does
// for one event: the write, then the acting user's timeline reads; its
// latency is the time the three store calls took. A failed write stops
// the run: the engines would no longer hold the same graph.
func (bn *bench) feedRound(r *round, events []gen.Event, ref []uint64, have []bool) error {
	st := bn.stores[r.e]
	for i, ev := range events {
		id := bn.nextOp()
		p := bn.openSpan(r, ev.Kind.String(), id)
		start := time.Now()
		err := twitter.Apply(st, ev)
		d := time.Since(start)
		if r.traced {
			bn.rec.add(span{layer: "twitter", name: applyID, op: id, parent: p, lane: int64(r.e + 1), start: start, end: start.Add(d)})
		}
		if err != nil {
			return fmt.Errorf("%s: apply event %v for user %d: %w", bn.runs[r.e].name, ev.Kind, ev.UID, err)
		}
		bn.observe(r, applyID, d, nil)
		if r.measured {
			r.writes++
			r.writeTime += d
			bn.runs[r.e].writes++
		}
		var opErr error
		for j, q := range timelineReads {
			_, dr, err := bn.issue(r, &op{q: q, idx: i*len(timelineReads) + j, uid: ev.UID}, id, p, ref, have)
			d += dr
			if opErr == nil {
				opErr = err
			}
		}
		bn.closeSpan(p)
		bn.count(r, start, d, opErr)
	}
	return nil
}
