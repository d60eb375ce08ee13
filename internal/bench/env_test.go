package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestTableWidensColumns: a cell longer than its header widens its
// column, so the columns after it stay aligned on every line.
func TestTableWidensColumns(t *testing.T) {
	var buf bytes.Buffer
	tw := newTable(&buf, "Query", "Category", "agree")
	tw.row("Q2.1", "Adjacency (1-step)", "yes")
	tw.row("Q5.2", "Influence (potential)", "yes")
	tw.row("Q6.1", "Path", "yes")
	tw.flush()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines, want 5:\n%s", len(lines), buf.String())
	}
	col := strings.Index(lines[0], "agree")
	for _, l := range lines[2:] {
		if got := strings.Index(l, "yes"); got != col {
			t.Errorf("%q: third column at %d, header at %d", l, got, col)
		}
	}
	if rule := strings.Fields(lines[1]); len(rule[1]) != len("Influence (potential)") {
		t.Errorf("rule %q does not span the widest Category cell", lines[1])
	}
}
