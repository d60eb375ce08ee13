// Package ingest implements the staged, parallel bulk-ingestion
// pipeline shared by both engines' loaders. A CSV file is split into
// batches of whole lines by a single reader; a worker pool parses each
// batch and runs an engine-supplied prepare step (typed-value decoding,
// key→id resolution) off the critical path; the caller's apply step
// then consumes the prepared batches strictly in file order on the
// calling goroutine.
//
// Because every store mutation happens in the ordered apply step, the
// final store state is byte-identical at any worker count — parallelism
// only overlaps parsing and decoding with applying (pipeline
// parallelism), it never reorders writes. Workers <= 1 runs the same
// batching code inline with no goroutines at all.
package ingest

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"sync"
	"time"

	"twigraph/internal/obs"
	"twigraph/internal/par"
)

// Histogram and counter names for the pipeline's per-stage
// instrumentation. Engines register these in their own observability
// registries so the series appear in twibench -json snapshots and on
// the telemetry /metrics endpoint.
const (
	// HParseNanos times the CSV-decode of one batch (worker side).
	HParseNanos = "import_parse_nanos"
	// HResolveNanos times the prepare step of one batch: typed-value
	// decoding and key→id resolution (worker side).
	HResolveNanos = "import_resolve_nanos"
	// HApplyNanos times the ordered apply of one batch (caller side).
	HApplyNanos = "import_apply_nanos"
)

// DefaultBatchRows is the pipeline batch size when Options.BatchRows
// is unset; it matches the importers' progress-sampling default.
const DefaultBatchRows = 100_000

// Options tunes one ForEachBatch run.
type Options struct {
	// Workers is the parse/prepare worker count: 0 means GOMAXPROCS,
	// 1 runs everything inline on the calling goroutine.
	Workers int
	// BatchRows is the number of CSV rows per batch; 0 means
	// DefaultBatchRows.
	BatchRows int

	// Per-stage histograms, each observed once per batch; nil skips.
	ParseHist   *obs.Histogram
	ResolveHist *obs.Histogram
	ApplyHist   *obs.Histogram
}

// PrepFunc runs on a worker goroutine with one parsed batch. It returns
// an engine-specific prepared form (decoded values, resolved ids) that
// is handed to the apply step. It must not touch shared mutable state
// without its own synchronisation.
type PrepFunc func(rows [][]string) (any, error)

// ApplyFunc runs on the calling goroutine with each batch in file
// order; prepped is the corresponding PrepFunc result (nil when prep
// was nil).
type ApplyFunc func(rows [][]string, prepped any) error

// ForEachBatch streams the CSV file at path through the three-stage
// pipeline. A header row is skipped using the same heuristic as the
// engines' serial loaders (first field of the first record neither a
// digit nor a leading minus). Errors report the earliest failing batch
// in file order: parse and prep errors of later batches never mask an
// earlier batch's failure, and apply always stops at the first error.
//
// Batching splits the file on line boundaries, which assumes no quoted
// field spans lines — true of the generator's output; a violating file
// fails loudly with a CSV parse error rather than corrupting data.
func ForEachBatch(path string, opts Options, prep PrepFunc, apply ApplyFunc) error {
	workers := par.Workers(opts.Workers)
	batchRows := opts.BatchRows
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ck := &chunker{br: bufio.NewReaderSize(f, 1<<20), batchRows: batchRows, first: true}

	if workers <= 1 {
		return forEachBatchSerial(ck, opts, prep, apply)
	}
	return forEachBatchParallel(ck, workers, opts, prep, apply)
}

func forEachBatchSerial(ck *chunker, opts Options, prep PrepFunc, apply ApplyFunc) error {
	for {
		data, err := ck.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		rows, prepped, err := parseAndPrep(data, opts, prep)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := apply(rows, prepped); err != nil {
			return err
		}
		observe(opts.ApplyHist, start)
	}
}

func forEachBatchParallel(ck *chunker, workers int, opts Options, prep PrepFunc, apply ApplyFunc) error {
	type batch struct {
		index   int
		rows    [][]string
		prepped any
		err     error
	}
	type chunk struct {
		index int
		data  []byte
	}
	chunks := make(chan chunk, workers)
	results := make(chan batch, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	defer halt()

	// Reader: split the file into batches of whole lines. readErr is
	// published before chunks closes and read after results closes, so
	// the channel-close chain orders the accesses.
	var readErr error
	go func() {
		defer close(chunks)
		for i := 0; ; i++ {
			data, err := ck.next()
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr = err
				return
			}
			select {
			case chunks <- chunk{i, data}:
			case <-stop:
				return
			}
		}
	}()

	// Workers: parse + prepare each batch independently.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				b := batch{index: c.index}
				b.rows, b.prepped, b.err = parseAndPrep(c.data, opts, prep)
				select {
				case results <- b:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	// Ordered apply on the calling goroutine. Batches arrive out of
	// order; they are consumed strictly by index, so the first error
	// ever acted on is the earliest one in file order.
	next := 0
	pending := make(map[int]batch)
	var firstErr error
	for b := range results {
		if firstErr != nil {
			continue // drain so the workers can exit
		}
		pending[b.index] = b
		for {
			nb, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if nb.err != nil {
				firstErr = nb.err
				halt()
				break
			}
			start := time.Now()
			if err := apply(nb.rows, nb.prepped); err != nil {
				firstErr = err
				halt()
				break
			}
			observe(opts.ApplyHist, start)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return readErr
}

// parseAndPrep is the worker body: CSV-decode one batch and run the
// prepare step, timing each stage.
func parseAndPrep(data []byte, opts Options, prep PrepFunc) ([][]string, any, error) {
	start := time.Now()
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	observe(opts.ParseHist, start)
	if err != nil {
		return nil, nil, err
	}
	if prep == nil {
		return rows, nil, nil
	}
	start = time.Now()
	prepped, err := prep(rows)
	observe(opts.ResolveHist, start)
	if err != nil {
		return nil, nil, err
	}
	return rows, prepped, nil
}

func observe(h *obs.Histogram, start time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
}

// chunker splits a CSV stream into batches of whole lines, skipping a
// header row on the first batch.
type chunker struct {
	br        *bufio.Reader
	batchRows int
	first     bool
}

// next returns the raw bytes of the next batch, or io.EOF when the
// stream is exhausted. Blank lines are dropped (they produce no CSV
// record) and do not count against the batch size, so batch row counts
// match what the CSV reader will emit.
func (c *chunker) next() ([]byte, error) {
	var buf []byte
	rows := 0
	for rows < c.batchRows {
		line, err := c.br.ReadBytes('\n')
		if len(line) > 0 && !blankLine(line) {
			if c.first {
				c.first = false
				if isHeaderLine(line) {
					line = nil
				}
			}
			if line != nil {
				buf = append(buf, line...)
				rows++
			}
		}
		if err == io.EOF {
			if len(buf) == 0 {
				return nil, io.EOF
			}
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func blankLine(line []byte) bool {
	for _, b := range line {
		if b != '\n' && b != '\r' {
			return false
		}
	}
	return true
}

// isHeaderLine applies the engines' shared header heuristic to a raw
// first line: parse it as one CSV record and test whether the first
// field starts with something other than a digit or minus.
func isHeaderLine(line []byte) bool {
	r := csv.NewReader(bytes.NewReader(line))
	r.FieldsPerRecord = -1
	rec, err := r.Read()
	if err != nil || len(rec) == 0 || len(rec[0]) == 0 {
		return false
	}
	ch := rec[0][0]
	return (ch < '0' || ch > '9') && ch != '-'
}
