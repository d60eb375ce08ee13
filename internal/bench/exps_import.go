package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"twigraph/internal/sparkdb"
)

func runFig2(e *Env, w io.Writer) error {
	res, err := e.Neo()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(a) node import series")
	t := newTable(w, "phase", "label", "rows", "elapsed_ms")
	for _, p := range res.Series {
		if p.Phase == "nodes" {
			t.rowf(p.Phase, p.Label, p.Count, p.Elapsed.Milliseconds())
		}
	}
	t.flush()
	fmt.Fprintln(w, "\n(b) edge import series")
	t = newTable(w, "phase", "label", "rows", "elapsed_ms")
	for _, p := range res.Series {
		if p.Phase == "edges" {
			t.rowf(p.Phase, p.Label, p.Count, p.Elapsed.Milliseconds())
		}
	}
	t.flush()
	r := res.Report
	fmt.Fprintf(w, `
Phases (paper: node+edge import, ~10 min intermediate dense-node step,
~8 min post-import index build, 45 min total at full scale):
  nodes      %v
  dense step %v
  edges      %v
  indexes    %v
  total      %v
`, r.NodePhase, r.DensePhase, r.EdgePhase, r.IndexPhase, r.Total)
	return nil
}

func runFig3(e *Env, w io.Writer) error {
	csvDir, sum, err := e.Dataset()
	if err != nil {
		return err
	}
	// A deliberately small cache makes the flush stalls the paper's
	// Figure 3 shows ("sharp jumps ... when the cache is full and has
	// to flush to disk") visible at this scale.
	db := sparkdb.New(sparkdb.Config{})
	var series []sparkdb.Progress
	opts := sparkdb.ScriptOptions{
		CacheSize: 96 << 10,
		BatchRows: sum.Tweets/8 + 1,
		ImagePath: filepath.Join(e.WorkDir, "fig3.img"),
		DataDir:   csvDir,
	}
	scriptPath, err := e.SparkScript()
	if err != nil {
		return err
	}
	rep, err := db.RunScript(scriptPath, opts, func(p sparkdb.Progress) {
		series = append(series, p)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "(a) node import series (three regions, one per node type / payload size)")
	t := newTable(w, "phase", "rows", "elapsed_ms", "flush")
	for _, p := range series {
		if strings.HasPrefix(p.Phase, "nodes:") {
			flag := ""
			if p.Flushed {
				flag = "FLUSH"
			}
			t.rowf(p.Phase, p.Rows, p.Elapsed.Milliseconds(), flag)
		}
	}
	t.flush()
	fmt.Fprintln(w, "\n(b) edge import series (vertical line = end of follows, ~80% of edges)")
	t = newTable(w, "phase", "rows", "elapsed_ms", "flush")
	for _, p := range series {
		if strings.HasPrefix(p.Phase, "edges:") {
			flag := ""
			if p.Flushed {
				flag = "FLUSH"
			}
			t.rowf(p.Phase, p.Rows, p.Elapsed.Milliseconds(), flag)
		}
	}
	t.flush()
	followsShare := float64(sum.Follows) / float64(sum.TotalEdges())
	fmt.Fprintf(w, "\nfollows share of edges: %.1f%% (paper: ~80%%); flush stalls: %d; total: %v\n",
		100*followsShare, rep.Flushes, rep.Duration)
	return nil
}

func runMaterialize(e *Env, w io.Writer) error {
	csvDir, _, err := e.Dataset()
	if err != nil {
		return err
	}
	scriptPath, err := e.SparkScript()
	if err != nil {
		return err
	}
	run := func(materialize bool) (time.Duration, error) {
		db := sparkdb.New(sparkdb.Config{})
		rep, err := db.RunScript(scriptPath, sparkdb.ScriptOptions{
			Materialize: materialize,
			ImagePath:   filepath.Join(e.WorkDir, fmt.Sprintf("mat-%v.img", materialize)),
			DataDir:     csvDir,
		}, nil)
		return rep.Duration, err
	}
	off, err := run(false)
	if err != nil {
		return err
	}
	on, err := run(true)
	if err != nil {
		return err
	}
	t := newTable(w, "materialize neighbors", "import time", "relative")
	t.rowf("off (paper's choice)", off, "1.00x")
	t.rowf("on (paper aborted at 8h)", on, fmt.Sprintf("%.2fx", float64(on)/float64(off)))
	t.flush()
	fmt.Fprintln(w, "\nWith materialisation every edge maintains a direct neighbor index")
	fmt.Fprintln(w, "in addition to its link bitmaps, roughly doubling import write volume.")
	return nil
}
