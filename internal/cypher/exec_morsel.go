package cypher

import (
	"slices"

	"twigraph/internal/bitmap"
	"twigraph/internal/graph"
	"twigraph/internal/par"
)

// Morsel-driven execution (Leis et al., SIGMOD 2014) under the Tuned
// profile: a label scan or a projection over at least two batches per
// worker splits its input into morsels of batchSize items, aligned as
// the serial loop's batches are, and runs them on par.Morsels workers.
// Each worker has a context of its own, so no operator state is shared
// between goroutines; the results are joined in morsel order, so rows
// and their order are those of the serial loop. Faithful never forks.

// forkMorsels runs fn over the ceil(n/batchSize) morsels of n items on
// forked workers and reports true, or reports false without running
// anything when the execution should stay serial: its profile allows
// one worker, n spans fewer than two morsels per worker, or the page
// caches have no frame to spare for a second Reader.
//
// fn(wc, w, m) runs morsel m on worker w's context wc. wc has its own
// Reader, batch scratch, candidate slot and property-key cache, and a
// tick count set before each morsel to what the serial loop would have
// counted by then, so the context is polled at the same rows. Worker 0
// runs on the execution's goroutine, in place of its Reader, which is
// closed until the workers are done; the others borrow Readers (see
// neodb.DB.BorrowReaders) and leave, returning theirs, when a query
// that starts needs the frames. A context abort a worker detects is
// counted once, here; the first error wins.
func (ec *execCtx) forkMorsels(n int, fn func(wc *execCtx, w, m int) error) (bool, error) {
	workers := ec.morselWorkers(n)
	if workers < 2 {
		return false, nil
	}
	extra := ec.db.BorrowReaders(workers - 1)
	if extra == 0 {
		return false, nil
	}
	ec.rd.Close()
	workers = 1 + extra

	wcs := make([]execCtx, workers)
	for w := range wcs {
		wcs[w] = execCtx{db: ec.db, rd: ec.db.Reader(), ctx: ec.ctx, params: ec.params,
			keys: ec.keys[:len(ec.keys):len(ec.keys)], buf: batchPool.Get().(*batchBufs),
			matrix: ec.matrix, spm: ec.spm, parm: ec.parm, workers: 1, worker: true}
	}
	left := make([]bool, workers) // by workers that returned their Reader
	leave := func(w int) bool {
		if !ec.db.ReadersCrowded() {
			return false
		}
		wcs[w].rd.Close()
		ec.db.ReturnReader()
		left[w] = true
		return true
	}
	base := ec.ticks
	err := par.Morsels(workers, (n+batchSize-1)/batchSize, ec.parm, func(w, m int) error {
		wc := &wcs[w]
		wc.ticks = base + uint(m*batchSize)
		return fn(wc, w, m)
	}, leave)
	for w := range wcs {
		wcs[w].rd.Close()
		wcs[w].buf.release()
		if w > 0 && !left[w] {
			ec.db.ReturnReader()
		}
	}
	ec.ticks = base + uint(n)
	if err != nil {
		ec.db.CountQueryAbort(err)
	}
	return true, err
}

// morselWorkers is how many workers the profile gives n items: at most
// one per two morsels.
func (ec *execCtx) morselWorkers(n int) int {
	return par.WorkersForSize(ec.workers, n, 2*batchSize)
}

// morselOut locates one morsel's output rows in its worker's slice.
type morselOut struct{ w, lo, hi int }

// scanMorsels is scan on forked workers: each morsel walks its batchSize
// ids of the set from their rank on and runs scanBatch over them into
// its worker's rows. It reports false, having done nothing, when
// forkMorsels declines to fork.
func (w *where) scanMorsels(ec *execCtx, r row, slot int, ids *bitmap.Bitmap, out []row) ([]row, bool, error) {
	n := ids.Cardinality()
	if ec.morselWorkers(n) < 2 {
		return out, false, nil
	}
	outs := make([][]row, ec.workers)
	spans := make([]morselOut, (n+batchSize-1)/batchSize)
	forked, err := ec.forkMorsels(n, func(wc *execCtx, wk, m int) error {
		batch := wc.buf.ids[:0]
		ids.ForEachFrom(m*batchSize, func(id uint64) bool {
			batch = append(batch, graph.NodeID(id))
			return len(batch) < batchSize
		})
		lo := len(outs[wk])
		var err error
		outs[wk], err = w.scanBatch(wc, r, slot, batch, outs[wk])
		spans[m] = morselOut{wk, lo, len(outs[wk])}
		return err
	})
	if !forked || err != nil {
		return out, forked, err
	}
	ec.parm.TimeMerge(func() {
		total := 0
		for _, o := range outs {
			total += len(o)
		}
		out = slices.Grow(out, total)
		for _, s := range spans {
			out = append(out, outs[s.w][s.lo:s.hi]...)
		}
	})
	return out, true, nil
}
