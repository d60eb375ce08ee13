package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"twigraph/internal/obs"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile returns the q-quantile of vals by linear interpolation
// between closest ranks; 0 for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// latencies collects per-op latencies in milliseconds.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/1e6)
	l.mu.Unlock()
}

func (l *latencies) q(q float64) float64 { return quantile(l.ms, q) }
func (l *latencies) mean() float64 {
	if len(l.ms) == 0 {
		return 0
	}
	var s float64
	for _, v := range l.ms {
		s += v
	}
	return s / float64(len(l.ms))
}

// latencyWindow is the span of the measured phase each latency
// percentile is taken over; the reported percentile is the median over
// windows, so a stall that hits one window does not decide the run.
const latencyWindow = 2 * time.Second

// opLatencies collects per-op latencies with the time each op started.
type opLatencies struct {
	at []time.Time
	ms []float64
}

func (l *opLatencies) add(at time.Time, d time.Duration) {
	l.at = append(l.at, at)
	l.ms = append(l.ms, float64(d)/1e6)
}

func (l *opLatencies) n() int { return len(l.ms) }

// q returns the median over windows of the q-quantile of each window's
// latencies. Windows are latencyWindow long from base; the last one
// absorbs any remainder of the total measured time.
func (l *opLatencies) q(q float64, base time.Time, total time.Duration) float64 {
	nw := int(total / latencyWindow)
	if nw < 1 {
		nw = 1
	}
	wins := make([][]float64, nw)
	for i, at := range l.at {
		k := int(at.Sub(base) / latencyWindow)
		if k < 0 {
			k = 0
		}
		if k >= nw {
			k = nw - 1
		}
		wins[k] = append(wins[k], l.ms[i])
	}
	var per []float64
	for _, w := range wins {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// meanAcc accumulates a mean duration.
type meanAcc struct {
	total time.Duration
	n     int
}

func (m *meanAcc) add(d time.Duration) { m.total += d; m.n++ }
func (m meanAcc) ms() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.total) / float64(m.n) / 1e6
}

// engineRun is everything measured for one engine in one run.
type engineRun struct {
	name string // "neo" or "spark"

	lat       opLatencies // every measured op; failed ops count at failLatency
	rates     []float64   // ops/s of each untraced measured round
	tracedRts []float64   // ops/s of each traced round (wall clock)
	wallRates []float64   // ops/s of each untraced round (wall clock)
	writeRts  []float64   // writes/s inside write calls, per round

	attempted, failed int
	ops, writes       int // measured ops and writes, for per-op ratios

	mu       sync.Mutex
	perQuery map[string]*meanAcc

	mem memDelta
}

func newEngineRun(name string) *engineRun {
	return &engineRun{name: name, perQuery: map[string]*meanAcc{}}
}

// observe records one measured store call of query id.
func (e *engineRun) observe(id string, d time.Duration) {
	e.mu.Lock()
	acc := e.perQuery[id]
	if acc == nil {
		acc = &meanAcc{}
		e.perQuery[id] = acc
	}
	acc.add(d)
	e.mu.Unlock()
}

// memDelta accumulates Go runtime allocation counters over an engine's
// rounds.
type memDelta struct {
	allocBytes, mallocs uint64
	gcs                 uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (m *memDelta) add(before, after runtime.MemStats) {
	m.allocBytes += after.TotalAlloc - before.TotalAlloc
	m.mallocs += after.Mallocs - before.Mallocs
	m.gcs += after.NumGC - before.NumGC
}

// counters is a snapshot of a registry's counters.
type counters map[string]uint64

func snapCounters(reg *obs.Registry) counters { return reg.Snapshot().Counters }

// sub returns the per-name increase from before to c.
func (c counters) sub(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// per returns c[name]/n, or 0 when n is 0.
func (c counters) per(name string, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(c[name]) / float64(n)
}

// meanMS returns the mean measured store-call time of query id.
func (e *engineRun) meanMS(id string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if acc := e.perQuery[id]; acc != nil {
		return acc.ms()
	}
	return 0
}
