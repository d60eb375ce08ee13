package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"twigraph/internal/obs"
)

func writeCSV(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// collect runs ForEachBatch and returns every applied row flattened,
// in apply order.
func collect(t *testing.T, path string, opts Options, prep PrepFunc) ([][]string, []any) {
	t.Helper()
	var rows [][]string
	var preps []any
	err := ForEachBatch(path, opts, prep, func(batch [][]string, prepped any) error {
		rows = append(rows, batch...)
		preps = append(preps, prepped)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, preps
}

func TestForEachBatchOrderAndHeader(t *testing.T) {
	lines := []string{"id,name"}
	for i := 0; i < 1000; i++ {
		lines = append(lines, fmt.Sprintf("%d,row%d", i, i))
	}
	path := writeCSV(t, lines...)
	for _, workers := range []int{1, 8} {
		rows, _ := collect(t, path, Options{Workers: workers, BatchRows: 7}, nil)
		if len(rows) != 1000 {
			t.Fatalf("workers=%d: got %d rows, want 1000 (header must be skipped)", workers, len(rows))
		}
		for i, rec := range rows {
			if rec[0] != fmt.Sprint(i) {
				t.Fatalf("workers=%d: row %d out of order: %v", workers, i, rec)
			}
		}
	}
}

func TestForEachBatchNoHeader(t *testing.T) {
	path := writeCSV(t, "1,a", "2,b", "-3,c")
	rows, _ := collect(t, path, Options{Workers: 4, BatchRows: 2}, nil)
	if len(rows) != 3 || rows[0][0] != "1" || rows[2][0] != "-3" {
		t.Fatalf("numeric first row must not be dropped as header: %v", rows)
	}
}

func TestForEachBatchBlankLines(t *testing.T) {
	path := writeCSV(t, "id,v", "1,a", "", "2,b", "")
	rows, _ := collect(t, path, Options{Workers: 2, BatchRows: 1}, nil)
	if len(rows) != 2 {
		t.Fatalf("blank lines should vanish: %v", rows)
	}
}

func TestForEachBatchPrepFlowsToApply(t *testing.T) {
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d", i)
	}
	path := writeCSV(t, lines...)
	prep := func(rows [][]string) (any, error) { return len(rows), nil }
	for _, workers := range []int{1, 6} {
		rows, preps := collect(t, path, Options{Workers: workers, BatchRows: 30}, prep)
		total := 0
		for _, p := range preps {
			total += p.(int)
		}
		if total != len(rows) || total != 100 {
			t.Fatalf("workers=%d: prep results mismatched: %d vs %d rows", workers, total, len(rows))
		}
	}
}

// TestForEachBatchEarliestError: a prep failure in an early batch must
// be the reported error even when later batches fail too (or finish
// first), and apply must never see batches past the failed one.
func TestForEachBatchEarliestError(t *testing.T) {
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d", i)
	}
	path := writeCSV(t, lines...)
	var mu sync.Mutex
	applied := 0
	prep := func(rows [][]string) (any, error) {
		if rows[0][0] == "100" { // second batch of 100
			return nil, fmt.Errorf("boom at 100")
		}
		if rows[0][0] == "300" {
			return nil, fmt.Errorf("boom at 300")
		}
		return nil, nil
	}
	err := ForEachBatch(path, Options{Workers: 8, BatchRows: 100}, prep,
		func(rows [][]string, _ any) error {
			mu.Lock()
			applied += len(rows)
			mu.Unlock()
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "boom at 100") {
		t.Fatalf("want earliest batch error, got %v", err)
	}
	if applied != 100 {
		t.Fatalf("apply saw %d rows; only the batch before the failure should apply", applied)
	}
}

func TestForEachBatchApplyErrorStops(t *testing.T) {
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d", i)
	}
	path := writeCSV(t, lines...)
	for _, workers := range []int{1, 4} {
		calls := 0
		err := ForEachBatch(path, Options{Workers: workers, BatchRows: 10}, nil,
			func([][]string, any) error {
				calls++
				if calls == 2 {
					return fmt.Errorf("apply failed")
				}
				return nil
			})
		if err == nil || !strings.Contains(err.Error(), "apply failed") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if calls != 2 {
			t.Fatalf("workers=%d: apply ran %d times after error", workers, calls)
		}
	}
}

func TestForEachBatchParseError(t *testing.T) {
	path := writeCSV(t, "1,\"unterminated", "2,b")
	for _, workers := range []int{1, 4} {
		err := ForEachBatch(path, Options{Workers: workers, BatchRows: 10}, nil,
			func([][]string, any) error { return nil })
		if err == nil {
			t.Fatalf("workers=%d: malformed CSV accepted", workers)
		}
	}
}

func TestForEachBatchHistograms(t *testing.T) {
	lines := make([]string, 30)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d", i)
	}
	path := writeCSV(t, lines...)
	reg := obs.NewRegistry()
	opts := Options{
		Workers: 4, BatchRows: 10,
		ParseHist:   reg.Histogram(HParseNanos),
		ResolveHist: reg.Histogram(HResolveNanos),
		ApplyHist:   reg.Histogram(HApplyNanos),
	}
	_, _ = collect(t, path, opts, func(rows [][]string) (any, error) { return nil, nil })
	if n := opts.ParseHist.Count(); n != 3 {
		t.Errorf("parse hist count = %d, want 3 batches", n)
	}
	if n := opts.ResolveHist.Count(); n != 3 {
		t.Errorf("resolve hist count = %d", n)
	}
	if n := opts.ApplyHist.Count(); n != 3 {
		t.Errorf("apply hist count = %d", n)
	}
}

func TestIDMap(t *testing.T) {
	im := NewIDMap()
	for i := int64(0); i < 10_000; i++ {
		im.Put(i, uint64(i)*3)
	}
	if im.Len() != 10_000 {
		t.Fatalf("len = %d", im.Len())
	}
	for i := int64(0); i < 10_000; i++ {
		v, ok := im.Get(i)
		if !ok || v != uint64(i)*3 {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	if _, ok := im.Get(-5); ok {
		t.Error("phantom key")
	}
	// Concurrent readers while a writer inserts fresh keys.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 10_000; i++ {
				if v, ok := im.Get(i); !ok || v != uint64(i)*3 {
					t.Errorf("concurrent Get(%d) = %d, %v", i, v, ok)
					return
				}
			}
		}()
	}
	for i := int64(10_000); i < 12_000; i++ {
		im.Put(i, uint64(i))
	}
	wg.Wait()
	if im.Len() != 12_000 {
		t.Fatalf("len after concurrent phase = %d", im.Len())
	}
	if got, want := im.MemBytes(), 12_000*idMapBytesPerEntry; got != want {
		t.Errorf("MemBytes = %d, want %d", got, want)
	}
}
