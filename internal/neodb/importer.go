package neodb

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"twigraph/internal/graph"
	"twigraph/internal/ingest"
	"twigraph/internal/obs"
	"twigraph/internal/storage"
)

// This file implements the batch import tool, the analogue of
// `neo4j-import` the paper uses for data ingestion (§3.2.1): it bypasses
// transactions, writes records straight through the page cache while a
// background flusher writes dirty pages "continuously and concurrently
// to disk", performs the intermediate dense-node step between node and
// edge import, and leaves index creation to a separate post-import
// phase — the tool "cannot create indexes while importing takes place".
//
// Import runs on the staged pipeline in internal/ingest: CSV chunking,
// parsing and value decoding happen on worker goroutines while record
// application stays on the calling goroutine in file order, so the
// final stores are byte-identical at any Config.ImportWorkers setting.
// Like neo4j-import, it writes no WAL: durability comes only from the
// final checkpoint, and a crash mid-import is detected by integrity
// checks, not recovered.

// ColumnSpec declares one CSV property column.
type ColumnSpec struct {
	Name string
	Kind graph.Kind
}

// NodeSpec declares one node CSV file: its label, the column holding
// the external integer id, and all property columns (which include the
// id column itself).
type NodeSpec struct {
	Label    string
	File     string
	IDColumn string
	Columns  []ColumnSpec
}

// EdgeSpec declares one edge CSV file: its relationship type and the
// labels whose external ids its two columns reference.
type EdgeSpec struct {
	Type     string
	File     string
	SrcLabel string
	DstLabel string
}

// ProgressPoint is one sample of the import time series — the data
// behind the paper's Figures 2(a) and 2(b).
type ProgressPoint struct {
	Phase   string        // "nodes", "dense", "edges", "indexes"
	Label   string        // node label or edge type for nodes/edges
	Count   int           // cumulative rows in this phase
	Elapsed time.Duration // since phase start
}

// ImportReport summarises an import run.
type ImportReport struct {
	Nodes, Edges int
	NodePhase    time.Duration
	DensePhase   time.Duration
	EdgePhase    time.Duration
	IndexPhase   time.Duration
	Total        time.Duration
	// IDMapBytes is the estimated heap held by the external-id maps at
	// the end of the node phase — the resolver state the edge phase
	// needs.
	IDMapBytes int
}

// Importer is the batch import tool. It must be used on a freshly
// opened, empty database.
type Importer struct {
	db          *DB
	batchRows   int
	progress    func(ProgressPoint)
	interleaved bool
	workers     int

	hParse, hResolve, hApply *obs.Histogram

	idMaps map[string]*ingest.IDMap // label -> external id -> node id
}

// NewImporter creates an importer for db. progress may be nil;
// batchRows controls both the pipeline batch size and progress sampling
// granularity (default 100k rows). The worker count comes from the
// database Config.
func (db *DB) NewImporter(batchRows int, progress func(ProgressPoint)) *Importer {
	if batchRows <= 0 {
		batchRows = 100_000
	}
	return &Importer{
		db:        db,
		batchRows: batchRows,
		progress:  progress,
		workers:   db.cfg.ImportWorkers,
		hParse:    db.reg.Histogram(ingest.HParseNanos),
		hResolve:  db.reg.Histogram(ingest.HResolveNanos),
		hApply:    db.reg.Histogram(ingest.HApplyNanos),
		idMaps:    make(map[string]*ingest.IDMap),
	}
}

// batchOptions assembles the pipeline configuration shared by every
// import phase.
func (imp *Importer) batchOptions() ingest.Options {
	return ingest.Options{
		Workers:     imp.workers,
		BatchRows:   imp.batchRows,
		ParseHist:   imp.hParse,
		ResolveHist: imp.hResolve,
		ApplyHist:   imp.hApply,
	}
}

// Run imports all node files, performs the dense-node step, imports all
// edge files, and builds indexes on the id columns of every node spec.
func (imp *Importer) Run(nodeSpecs []NodeSpec, edgeSpecs []EdgeSpec) (ImportReport, error) {
	var rep ImportReport
	start := time.Now()

	// Background flusher: concurrent, continuous disk writes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				// Best-effort: flush errors surface later at Sync.
				imp.db.nodes.Sync()
				imp.db.rels.Sync()
				imp.db.props.Sync()
				imp.db.strs.Sync()
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	phaseStart := time.Now()
	for _, spec := range nodeSpecs {
		n, err := imp.importNodes(spec)
		if err != nil {
			return rep, fmt.Errorf("importing nodes %s: %w", spec.Label, err)
		}
		rep.Nodes += n
	}
	for _, m := range imp.idMaps {
		rep.IDMapBytes += m.MemBytes()
	}
	rep.NodePhase = time.Since(phaseStart)

	phaseStart = time.Now()
	if err := imp.denseNodeStep(edgeSpecs); err != nil {
		return rep, err
	}
	rep.DensePhase = time.Since(phaseStart)

	// Deferred stitching for dense hubs: resolve each (node, type) group
	// once and reuse it for every subsequent edge instead of walking the
	// group chain per row. Cleared when Run returns.
	imp.db.groupCache = make(map[groupCacheKey]uint64)
	defer func() { imp.db.groupCache = nil }()

	phaseStart = time.Now()
	if imp.interleaved {
		n, err := imp.importEdgesInterleaved(edgeSpecs)
		if err != nil {
			return rep, fmt.Errorf("importing interleaved edges: %w", err)
		}
		rep.Edges += n
	} else {
		for _, spec := range edgeSpecs {
			n, err := imp.importEdges(spec)
			if err != nil {
				return rep, fmt.Errorf("importing edges %s: %w", spec.Type, err)
			}
			rep.Edges += n
		}
	}
	rep.EdgePhase = time.Since(phaseStart)

	// Post-import index build on all unique node identifiers.
	phaseStart = time.Now()
	for _, spec := range nodeSpecs {
		label := imp.db.Label(spec.Label)
		key := imp.db.PropKey(spec.IDColumn)
		if err := imp.db.CreateIndex(label, key); err != nil {
			return rep, err
		}
	}
	rep.IndexPhase = time.Since(phaseStart)
	if imp.progress != nil {
		imp.progress(ProgressPoint{Phase: "indexes", Count: len(nodeSpecs), Elapsed: rep.IndexPhase})
	}

	rep.Total = time.Since(start)
	return rep, imp.db.Sync()
}

func (imp *Importer) importNodes(spec NodeSpec) (int, error) {
	label := imp.db.Label(spec.Label)
	keys := make([]graph.AttrID, len(spec.Columns))
	idCol := -1
	for i, c := range spec.Columns {
		keys[i] = imp.db.PropKey(c.Name)
		if c.Name == spec.IDColumn {
			idCol = i
		}
	}
	if idCol < 0 {
		return 0, fmt.Errorf("id column %q not among columns", spec.IDColumn)
	}
	if spec.Columns[idCol].Kind != graph.KindInt {
		return 0, fmt.Errorf("id column %q must be int", spec.IDColumn)
	}
	idMap := ingest.NewIDMap()
	imp.idMaps[spec.Label] = idMap

	ncols := len(spec.Columns)
	phaseStart := time.Now()
	rows := 0
	// Stage 1/2 (workers): typed-value decode for the whole batch,
	// flattened row-major.
	prep := func(batch [][]string) (any, error) {
		vals := make([]graph.Value, 0, len(batch)*ncols)
		for _, rec := range batch {
			if len(rec) < ncols {
				return nil, fmt.Errorf("row has %d columns, want %d", len(rec), ncols)
			}
			for i := 0; i < ncols; i++ {
				v, err := parseValue(rec[i], spec.Columns[i].Kind)
				if err != nil {
					return nil, fmt.Errorf("column %s: %w", spec.Columns[i].Name, err)
				}
				vals = append(vals, v)
			}
		}
		return vals, nil
	}
	// Stage 3 (caller goroutine, file order): reserve a contiguous id
	// extent for the batch, then write the records.
	apply := func(batch [][]string, prepped any) error {
		vals := prepped.([]graph.Value)
		base := imp.db.nodes.AllocateRun(len(batch))
		for r := range batch {
			rowVals := vals[r*ncols : (r+1)*ncols]
			id := graph.NodeID(base + uint64(r))
			if err := imp.db.applyImportNodeRow(id, label, keys, rowVals); err != nil {
				return err
			}
			idMap.Put(rowVals[idCol].Int(), uint64(id))
			rows++
			if imp.progress != nil && rows%imp.batchRows == 0 {
				imp.progress(ProgressPoint{Phase: "nodes", Label: spec.Label, Count: rows, Elapsed: time.Since(phaseStart)})
			}
		}
		return nil
	}
	if err := ingest.ForEachBatch(spec.File, imp.batchOptions(), prep, apply); err != nil {
		return rows, err
	}
	if imp.progress != nil {
		imp.progress(ProgressPoint{Phase: "nodes", Label: spec.Label, Count: rows, Elapsed: time.Since(phaseStart)})
	}
	return rows, nil
}

// denseNodeStep is the intermediate pass between node and edge import —
// the paper's "computing the dense nodes". It resets every node's chain
// bookkeeping, then counts each node's eventual degree from the edge
// source files and pre-marks the nodes that will exceed the dense
// threshold, so their relationships go straight into per-type group
// chains during edge import instead of being converted mid-stream.
// Parsing and id resolution of the edge files run on the pipeline
// workers; only the degree accumulation is serial.
func (imp *Importer) denseNodeStep(edgeSpecs []EdgeSpec) error {
	start := time.Now()
	high := imp.db.nodes.HighWater()
	for id := uint64(1); id <= high; id++ {
		rec, err := imp.db.nodes.Get(graph.NodeID(id))
		if err != nil {
			return err
		}
		if !rec.InUse {
			continue
		}
		rec.FirstRel, rec.DegOut, rec.DegIn, rec.Dense = 0, 0, 0, false
		if err := imp.db.nodes.Put(graph.NodeID(id), rec); err != nil {
			return err
		}
	}
	// Count eventual degrees from the source files. Rows that fail to
	// parse or resolve are skipped here; edge import proper reports them.
	deg := make(map[graph.NodeID]uint32)
	for _, spec := range edgeSpecs {
		srcMap := imp.idMaps[spec.SrcLabel]
		dstMap := imp.idMaps[spec.DstLabel]
		if srcMap == nil || dstMap == nil {
			continue // surfaces as an error during edge import
		}
		prep := func(batch [][]string) (any, error) {
			pairs := make([]graph.NodeID, 0, len(batch)*2)
			for _, rec := range batch {
				var s, d graph.NodeID
				if len(rec) >= 2 {
					if sv, err := strconv.ParseInt(rec[0], 10, 64); err == nil {
						if n, ok := srcMap.Get(sv); ok {
							s = graph.NodeID(n)
						}
					}
					if dv, err := strconv.ParseInt(rec[1], 10, 64); err == nil {
						if n, ok := dstMap.Get(dv); ok {
							d = graph.NodeID(n)
						}
					}
				}
				pairs = append(pairs, s, d)
			}
			return pairs, nil
		}
		apply := func(_ [][]string, prepped any) error {
			for _, n := range prepped.([]graph.NodeID) {
				if n != 0 {
					deg[n]++
				}
			}
			return nil
		}
		if err := ingest.ForEachBatch(spec.File, imp.batchOptions(), prep, apply); err != nil {
			return err
		}
	}
	threshold := imp.db.denseThreshold()
	var ids []graph.NodeID
	for n, d := range deg {
		if d >= threshold {
			ids = append(ids, n)
		}
	}
	slices.Sort(ids) // mark order independent of map iteration
	if err := imp.db.applyImportDense(ids); err != nil {
		return err
	}
	if imp.progress != nil {
		imp.progress(ProgressPoint{Phase: "dense", Count: len(ids), Elapsed: time.Since(start)})
	}
	return nil
}

func (imp *Importer) importEdges(spec EdgeSpec) (int, error) {
	t := imp.db.RelType(spec.Type)
	srcMap := imp.idMaps[spec.SrcLabel]
	dstMap := imp.idMaps[spec.DstLabel]
	if srcMap == nil || dstMap == nil {
		return 0, fmt.Errorf("edge %s references unimported labels %s/%s", spec.Type, spec.SrcLabel, spec.DstLabel)
	}
	phaseStart := time.Now()
	rows := 0
	// Stage 1/2 (workers): endpoint resolution against the sharded id
	// maps, flattened as (src, dst) pairs.
	prep := func(batch [][]string) (any, error) {
		pairs := make([]graph.NodeID, 0, len(batch)*2)
		for _, rec := range batch {
			if len(rec) < 2 {
				return nil, fmt.Errorf("edge row has %d columns, want 2", len(rec))
			}
			sv, err := strconv.ParseInt(rec[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad source id %q", rec[0])
			}
			dv, err := strconv.ParseInt(rec[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad target id %q", rec[1])
			}
			src, ok := srcMap.Get(sv)
			if !ok {
				return nil, fmt.Errorf("unknown %s id %d", spec.SrcLabel, sv)
			}
			dst, ok := dstMap.Get(dv)
			if !ok {
				return nil, fmt.Errorf("unknown %s id %d", spec.DstLabel, dv)
			}
			pairs = append(pairs, graph.NodeID(src), graph.NodeID(dst))
		}
		return pairs, nil
	}
	apply := func(batch [][]string, prepped any) error {
		pairs := prepped.([]graph.NodeID)
		base := imp.db.rels.AllocateRun(len(batch))
		for r := 0; r < len(batch); r++ {
			id := graph.EdgeID(base + uint64(r))
			if err := imp.db.applyCreateRel(id, t, pairs[2*r], pairs[2*r+1]); err != nil {
				return err
			}
			rows++
			if imp.progress != nil && rows%imp.batchRows == 0 {
				imp.progress(ProgressPoint{Phase: "edges", Label: spec.Type, Count: rows, Elapsed: time.Since(phaseStart)})
			}
		}
		return nil
	}
	if err := ingest.ForEachBatch(spec.File, imp.batchOptions(), prep, apply); err != nil {
		return rows, err
	}
	if imp.progress != nil {
		imp.progress(ProgressPoint{Phase: "edges", Label: spec.Type, Count: rows, Elapsed: time.Since(phaseStart)})
	}
	return rows, nil
}

// applyImportNodeRow writes one imported node: property chain first
// (back-to-front so the chain follows column order), then a single node
// record carrying the chain head, then the label-scan entry.
func (db *DB) applyImportNodeRow(id graph.NodeID, label graph.TypeID, keys []graph.AttrID, vals []graph.Value) error {
	var firstProp uint64
	for i := len(vals) - 1; i >= 0; i-- {
		kind, payload, err := db.encodePropValue(vals[i])
		if err != nil {
			return err
		}
		pid := db.props.Allocate()
		prec := storage.PropRecord{InUse: true, Key: keys[i], Kind: kind, Payload: payload, Next: firstProp}
		if err := db.props.Put(pid, prec); err != nil {
			return err
		}
		firstProp = pid
	}
	if err := db.nodes.Put(id, storage.NodeRecord{InUse: true, Label: label, FirstProp: firstProp}); err != nil {
		return err
	}
	db.labelScan.Add(label, id)
	return nil
}

// applyImportDense sets the dense flag on the listed nodes, all of
// them created by the node phase.
func (db *DB) applyImportDense(ids []graph.NodeID) error {
	for _, n := range ids {
		rec, err := db.nodes.Get(n)
		if err != nil {
			return err
		}
		rec.Dense = true
		if err := db.nodes.Put(n, rec); err != nil {
			return err
		}
	}
	return nil
}

// ---------- CSV plumbing ----------

// forEachCSVRow is the serial row reader used by the interleaved layout
// path (which needs whole-file shuffling, not batch application).
func forEachCSVRow(file string, fn func([]string) error) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReaderSize(f, 1<<20))
	r.ReuseRecord = true
	r.FieldsPerRecord = -1
	first := true
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if first {
			first = false
			if len(rec) > 0 && len(rec[0]) > 0 {
				c := rec[0][0]
				if (c < '0' || c > '9') && c != '-' {
					continue // header row
				}
			}
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

func parseValue(s string, kind graph.Kind) (graph.Value, error) {
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
	return graph.NilValue, fmt.Errorf("unsupported kind %v", kind)
}

// ImportDirLayout returns the conventional CSV layout produced by the
// dataset generator, rooted at dir — shared by both engines' loaders.
func ImportDirLayout(dir string) ([]NodeSpec, []EdgeSpec) {
	nodes := []NodeSpec{
		{
			Label: "user", File: filepath.Join(dir, "users.csv"), IDColumn: "uid",
			Columns: []ColumnSpec{
				{Name: "uid", Kind: graph.KindInt},
				{Name: "screen_name", Kind: graph.KindString},
				{Name: "followers", Kind: graph.KindInt},
			},
		},
		{
			Label: "tweet", File: filepath.Join(dir, "tweets.csv"), IDColumn: "tid",
			Columns: []ColumnSpec{
				{Name: "tid", Kind: graph.KindInt},
				{Name: "text", Kind: graph.KindString},
			},
		},
		{
			Label: "hashtag", File: filepath.Join(dir, "hashtags.csv"), IDColumn: "hid",
			Columns: []ColumnSpec{
				{Name: "hid", Kind: graph.KindInt},
				{Name: "tag", Kind: graph.KindString},
			},
		},
	}
	edges := []EdgeSpec{
		{Type: "follows", File: filepath.Join(dir, "follows.csv"), SrcLabel: "user", DstLabel: "user"},
		{Type: "posts", File: filepath.Join(dir, "posts.csv"), SrcLabel: "user", DstLabel: "tweet"},
		{Type: "mentions", File: filepath.Join(dir, "mentions.csv"), SrcLabel: "tweet", DstLabel: "user"},
		{Type: "tags", File: filepath.Join(dir, "tags.csv"), SrcLabel: "tweet", DstLabel: "hashtag"},
	}
	if _, err := os.Stat(filepath.Join(dir, "retweets.csv")); err == nil {
		edges = append(edges, EdgeSpec{Type: "retweets", File: filepath.Join(dir, "retweets.csv"), SrcLabel: "tweet", DstLabel: "tweet"})
	}
	return nodes, edges
}
