package main

import (
	"bufio"
	"os"
	"sync"
	"time"

	"twigraph/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	layer      string // "loadgen", "driver", "serve", "twitter", "ingest.neo", ...
	name       string // the call: a query id, a catalogue name, a loader
	op         int64  // the op the span belongs to (0 for set-up spans)
	parent     int    // index of the enclosing span in the recorder, -1 for none
	lane       int64  // trace track
	start, end time.Time
	args       map[string]any
}

// recorder keeps spans in memory while it is on; a nil recorder records
// nothing. Spans are written out once, when the run ends.
type recorder struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

// enabled reports whether spans are being recorded.
func (r *recorder) enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *recorder) setEnabled(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// add records s and returns its index (-1 when not recording).
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end sets the end time of span i (no-op for -1).
func (r *recorder) end(i int, t time.Time) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].end = t
	r.mu.Unlock()
}

// selfTimes returns, per layer, the summed span durations minus the time
// their direct child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		self[s.layer] += s.end.Sub(s.start)
	}
	for _, s := range r.spans {
		if s.parent >= 0 {
			self[r.spans[s.parent].layer] -= s.end.Sub(s.start)
		}
	}
	return self
}

// writeChromeTrace writes the recorded spans, merged with the serving
// layer's own trace buffers, as Chrome trace-event JSON that Perfetto
// loads.
func (r *recorder) writeChromeTrace(path string, extra []obs.TraceProcess) error {
	buf := obs.NewTraceBuffer(len(r.spans) + 1)
	buf.SetEnabled(true)
	r.mu.Lock()
	for _, s := range r.spans {
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = r.spans[s.parent].layer
		}
		for k, v := range s.args {
			args[k] = v
		}
		buf.Complete(s.layer, s.name, s.lane, s.start, s.end.Sub(s.start), args)
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	procs := append([]obs.TraceProcess{{Name: "perfbench", Buf: buf}}, extra...)
	if err := obs.WriteChromeTrace(w, procs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// count returns how many spans of layer were recorded.
func (r *recorder) count(layer string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.layer == layer {
			n++
		}
	}
	return n
}
