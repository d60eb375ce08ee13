package sparkdb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/ingest"
)

// Sparksee loads bulk data through scripts that "define the schema of
// the database ... specify the IDs to be indexed and source files for
// loading data" (paper §3.2.2). This file implements that mechanism: a
// small declarative script drives schema creation and CSV ingestion
// through an extent cache that buffers insertions and stalls to flush
// when full — the behaviour behind the sharp jumps in the paper's
// Figure 3.

// ScriptOptions are the tunables the paper sets for its import:
// extent size 64 KB, cache size 5 GB, recovery disabled, neighbor
// materialisation off (on made the full-scale import exceed 8 hours).
type ScriptOptions struct {
	ExtentSize  int    // bytes per extent; default 64 KiB
	CacheSize   int64  // bytes buffered before a flush; default 5 GiB
	Materialize bool   // materialise neighbor indexes during import
	Recovery    bool   // enable recovery/rollback (slows insertion)
	ImagePath   string // where flushes persist the image; default <script dir>/sparkdb.img
	DataDir     string // directory CSV references resolve against; default the script's directory
	BatchRows   int    // pipeline batch size and progress granularity; default 100k
	Workers     int    // import pipeline workers: 0 = GOMAXPROCS, 1 = serial
}

// Progress describes one loader progress event.
type Progress struct {
	Phase   string        // "nodes:<type>" or "edges:<type>"
	Rows    int           // cumulative rows loaded in this phase
	Elapsed time.Duration // time since phase start
	Flushed bool          // true when this event follows a cache flush
}

// ScriptResult summarises a completed script run.
type ScriptResult struct {
	Nodes, Edges int
	Flushes      int
	Duration     time.Duration
}

// scriptDecl is one parsed script statement.
type scriptDecl struct {
	kind  string // "options", "node", "edge"
	name  string
	file  string
	attrs []attrDecl // node decls
	tail  endpointRef
	head  endpointRef
	opts  map[string]string
}

type attrDecl struct {
	name    string
	kind    graph.Kind
	indexed bool
}

type endpointRef struct {
	typeName string
	attrName string
}

// parseScript parses a loader script. Grammar (one statement per line,
// '#' comments):
//
//	options key=value ...
//	node <type> <csvfile> <attr>:<kind>[:index] ...
//	edge <type> <csvfile> <tailType>.<tailAttr> <headType>.<headAttr>
//
// Recognised option keys: extent_size, cache_size, materialize,
// recovery.
func parseScript(r io.Reader) ([]scriptDecl, error) {
	var decls []scriptDecl
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "options":
			opts := make(map[string]string)
			for _, kv := range fields[1:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("script line %d: bad option %q", lineNo, kv)
				}
				opts[k] = v
			}
			decls = append(decls, scriptDecl{kind: "options", opts: opts})
		case "node":
			if len(fields) < 4 {
				return nil, fmt.Errorf("script line %d: node needs type, file and attributes", lineNo)
			}
			d := scriptDecl{kind: "node", name: fields[1], file: fields[2]}
			for _, spec := range fields[3:] {
				parts := strings.Split(spec, ":")
				if len(parts) < 2 {
					return nil, fmt.Errorf("script line %d: bad attribute %q", lineNo, spec)
				}
				kind, err := parseKind(parts[1])
				if err != nil {
					return nil, fmt.Errorf("script line %d: %v", lineNo, err)
				}
				d.attrs = append(d.attrs, attrDecl{
					name:    parts[0],
					kind:    kind,
					indexed: len(parts) > 2 && parts[2] == "index",
				})
			}
			decls = append(decls, d)
		case "edge":
			if len(fields) != 5 {
				return nil, fmt.Errorf("script line %d: edge needs type, file, tail and head refs", lineNo)
			}
			tail, err := parseRef(fields[3])
			if err != nil {
				return nil, fmt.Errorf("script line %d: %v", lineNo, err)
			}
			head, err := parseRef(fields[4])
			if err != nil {
				return nil, fmt.Errorf("script line %d: %v", lineNo, err)
			}
			decls = append(decls, scriptDecl{kind: "edge", name: fields[1], file: fields[2], tail: tail, head: head})
		default:
			return nil, fmt.Errorf("script line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	return decls, sc.Err()
}

func parseKind(s string) (graph.Kind, error) {
	switch s {
	case "int":
		return graph.KindInt, nil
	case "string":
		return graph.KindString, nil
	case "bool":
		return graph.KindBool, nil
	case "float":
		return graph.KindFloat, nil
	}
	return graph.KindNil, fmt.Errorf("unknown kind %q", s)
}

func parseRef(s string) (endpointRef, error) {
	t, a, ok := strings.Cut(s, ".")
	if !ok {
		return endpointRef{}, fmt.Errorf("bad endpoint ref %q (want type.attr)", s)
	}
	return endpointRef{typeName: t, attrName: a}, nil
}

// RunScript parses and executes the script at path against db. CSV
// files are resolved relative to opts.DataDir, or to the script's
// directory when unset. The optional progress callback receives one
// event per BatchRows rows and after every flush stall.
func (db *DB) RunScript(path string, opts ScriptOptions, progress func(Progress)) (ScriptResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScriptResult{}, err
	}
	decls, err := parseScript(f)
	f.Close()
	if err != nil {
		return ScriptResult{}, err
	}
	return db.runDecls(filepath.Dir(path), decls, opts, progress)
}

func (db *DB) runDecls(dir string, decls []scriptDecl, opts ScriptOptions, progress func(Progress)) (ScriptResult, error) {
	// Script options fill in fields the caller left unset; explicit
	// caller options take precedence.
	callerExtent := opts.ExtentSize > 0
	callerCache := opts.CacheSize > 0
	for _, d := range decls {
		if d.kind != "options" {
			continue
		}
		if v, ok := d.opts["extent_size"]; ok && !callerExtent {
			if n, err := strconv.Atoi(v); err == nil {
				opts.ExtentSize = n
			}
		}
		if v, ok := d.opts["cache_size"]; ok && !callerCache {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				opts.CacheSize = n
			}
		}
		if v, ok := d.opts["materialize"]; ok && !opts.Materialize {
			opts.Materialize = v == "true"
		}
		if v, ok := d.opts["recovery"]; ok && !opts.Recovery {
			opts.Recovery = v == "true"
		}
	}
	if opts.ExtentSize <= 0 {
		opts.ExtentSize = 64 << 10
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 5 << 30
	}
	if opts.BatchRows <= 0 {
		opts.BatchRows = 100_000
	}
	if opts.ImagePath == "" {
		opts.ImagePath = filepath.Join(dir, "sparkdb.img")
	}
	dataDir := opts.DataDir
	if dataDir == "" {
		dataDir = dir
	}

	start := time.Now()
	ld := &scriptLoader{db: db, dir: dataDir, opts: opts, progress: progress}
	for _, d := range decls {
		switch d.kind {
		case "node":
			if err := ld.loadNodes(d); err != nil {
				return ld.result(start), fmt.Errorf("loading nodes %s: %w", d.name, err)
			}
		case "edge":
			if err := ld.loadEdges(d); err != nil {
				return ld.result(start), fmt.Errorf("loading edges %s: %w", d.name, err)
			}
		}
	}
	// Final flush persists the image.
	if err := ld.flush(); err != nil {
		return ld.result(start), err
	}
	return ld.result(start), nil
}

type scriptLoader struct {
	db       *DB
	dir      string
	opts     ScriptOptions
	progress func(Progress)

	nodes, edges int
	flushes      int
	dirty        int64
}

// batchOptions assembles the pipeline configuration; per-stage timings
// land in the engine registry under the shared ingest histogram names.
func (l *scriptLoader) batchOptions() ingest.Options {
	return ingest.Options{
		Workers:     l.opts.Workers,
		BatchRows:   l.opts.BatchRows,
		ParseHist:   l.db.reg.Histogram(ingest.HParseNanos),
		ResolveHist: l.db.reg.Histogram(ingest.HResolveNanos),
		ApplyHist:   l.db.reg.Histogram(ingest.HApplyNanos),
	}
}

func (l *scriptLoader) result(start time.Time) ScriptResult {
	return ScriptResult{Nodes: l.nodes, Edges: l.edges, Flushes: l.flushes, Duration: time.Since(start)}
}

// charge accounts freshly inserted bytes against the cache, flushing
// when it fills — the stall the paper observed. Extent granularity
// rounds each charge up to a whole extent the first time it is touched;
// the coarse model charges per row.
func (l *scriptLoader) charge(bytes int) (flushed bool, err error) {
	l.dirty += int64(bytes)
	if l.dirty < l.opts.CacheSize {
		return false, nil
	}
	return true, l.flush()
}

func (l *scriptLoader) flush() error {
	l.dirty = 0
	l.flushes++
	return l.db.Save(l.opts.ImagePath)
}

func (l *scriptLoader) loadNodes(d scriptDecl) error {
	typeID, err := l.db.NewNodeType(d.name)
	if err != nil {
		return err
	}
	attrIDs := make([]graph.AttrID, len(d.attrs))
	for i, a := range d.attrs {
		attrIDs[i], err = l.db.NewAttribute(typeID, a.name, a.kind, a.indexed)
		if err != nil {
			return err
		}
	}
	phase := "nodes:" + d.name
	phaseStart := time.Now()
	rows := 0
	nattrs := len(d.attrs)
	// Stage 1/2 (workers): typed-value coercion plus the per-row cache
	// cost, leaving only the locked insertion to the apply stage.
	type nodePrep struct {
		vals  []graph.Value
		costs []int
	}
	prep := func(batch [][]string) (any, error) {
		p := nodePrep{
			vals:  make([]graph.Value, 0, len(batch)*nattrs),
			costs: make([]int, len(batch)),
		}
		for ri, rec := range batch {
			if len(rec) < nattrs {
				return nil, fmt.Errorf("row has %d columns, want %d", len(rec), nattrs)
			}
			cost := 16
			for i, a := range d.attrs {
				v, err := coerce(rec[i], a.kind)
				if err != nil {
					return nil, err
				}
				p.vals = append(p.vals, v)
				cost += 16 + len(rec[i])
			}
			p.costs[ri] = cost
		}
		return p, nil
	}
	// Stage 3 (caller goroutine, file order): one locked batch insert,
	// then the same per-row cache accounting and progress sampling the
	// serial path performed.
	apply := func(batch [][]string, prepped any) error {
		p := prepped.(nodePrep)
		created, capErr := l.db.NewNodeBatch(typeID, attrIDs, len(batch), p.vals)
		for r := 0; r < created; r++ {
			l.nodes++
			rows++
			flushed, err := l.charge(p.costs[r])
			if err != nil {
				return err
			}
			if l.progress != nil && (flushed || rows%l.opts.BatchRows == 0) {
				l.progress(Progress{Phase: phase, Rows: rows, Elapsed: time.Since(phaseStart), Flushed: flushed})
			}
		}
		return capErr
	}
	return ingest.ForEachBatch(filepath.Join(l.dir, d.file), l.batchOptions(), prep, apply)
}

func (l *scriptLoader) loadEdges(d scriptDecl) error {
	typeID := l.db.FindType(d.name)
	if typeID == graph.NilType {
		var err error
		typeID, err = l.db.NewEdgeType(d.name, l.opts.Materialize)
		if err != nil {
			return err
		}
	}
	tailType := l.db.FindType(d.tail.typeName)
	headType := l.db.FindType(d.head.typeName)
	tailAttr := l.db.FindAttribute(tailType, d.tail.attrName)
	headAttr := l.db.FindAttribute(headType, d.head.attrName)
	if tailAttr == graph.NilAttr || headAttr == graph.NilAttr {
		return fmt.Errorf("unresolved endpoint refs %s.%s / %s.%s",
			d.tail.typeName, d.tail.attrName, d.head.typeName, d.head.attrName)
	}
	tailKind := l.db.attrs[tailAttr-1].kind
	headKind := l.db.attrs[headAttr-1].kind

	// Lock-free endpoint resolvers: node postings are immutable during
	// the edge phase, so the prepare workers probe the inverted indexes
	// concurrently without serialising on the database lock.
	resolveTail := l.db.BulkResolver(tailAttr)
	resolveHead := l.db.BulkResolver(headAttr)

	cost := 24
	if l.opts.Materialize {
		// Maintaining the neighbor index roughly doubles the write
		// volume per edge.
		cost *= 2
	}
	if l.opts.Recovery {
		cost += 24 // logging overhead
	}

	phase := "edges:" + d.name
	phaseStart := time.Now()
	rows := 0
	// Stage 1/2 (workers): coercion and endpoint resolution, flattened
	// as (tail, head) OID pairs.
	prep := func(batch [][]string) (any, error) {
		pairs := make([]uint64, 0, len(batch)*2)
		for _, rec := range batch {
			if len(rec) < 2 {
				return nil, fmt.Errorf("edge row has %d columns, want 2", len(rec))
			}
			tv, err := coerce(rec[0], tailKind)
			if err != nil {
				return nil, err
			}
			hv, err := coerce(rec[1], headKind)
			if err != nil {
				return nil, err
			}
			tail, ok := resolveTail(tv)
			if !ok {
				return nil, fmt.Errorf("unknown tail %s=%v", d.tail.attrName, tv)
			}
			head, ok := resolveHead(hv)
			if !ok {
				return nil, fmt.Errorf("unknown head %s=%v", d.head.attrName, hv)
			}
			pairs = append(pairs, tail, head)
		}
		return pairs, nil
	}
	apply := func(batch [][]string, prepped any) error {
		created, capErr := l.db.NewEdgeBatch(typeID, prepped.([]uint64))
		for r := 0; r < created; r++ {
			l.edges++
			rows++
			flushed, err := l.charge(cost)
			if err != nil {
				return err
			}
			if l.progress != nil && (flushed || rows%l.opts.BatchRows == 0) {
				l.progress(Progress{Phase: phase, Rows: rows, Elapsed: time.Since(phaseStart), Flushed: flushed})
			}
		}
		return capErr
	}
	return ingest.ForEachBatch(filepath.Join(l.dir, d.file), l.batchOptions(), prep, apply)
}

func coerce(s string, kind graph.Kind) (graph.Value, error) {
	switch kind {
	case graph.KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return graph.NilValue, fmt.Errorf("bad int %q", s)
		}
		return graph.IntValue(i), nil
	case graph.KindString:
		return graph.StringValue(s), nil
	case graph.KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return graph.NilValue, fmt.Errorf("bad bool %q", s)
		}
		return graph.BoolValue(b), nil
	case graph.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return graph.NilValue, fmt.Errorf("bad float %q", s)
		}
		return graph.FloatValue(f), nil
	}
	return graph.NilValue, fmt.Errorf("cannot coerce to %v", kind)
}
