package clitest

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"twigraph/internal/telemetry"
)

// TestTelemetrySmoke drives the full observability surface end-to-end:
// a bench run with -listen exposes /metrics (valid Prometheus
// exposition with both engines' core counters and latency histograms)
// and /healthz mid-session, -trace writes a Perfetto-loadable Chrome
// trace, and SIGTERM ends the held session with exit status 0.
func TestTelemetrySmoke(t *testing.T) {
	bin := binaries(t)
	trace := filepath.Join(t.TempDir(), "trace.json")

	cmd := exec.Command(filepath.Join(bin, "twibench"),
		"-exp", "table2", "-users", "300",
		"-listen", "127.0.0.1:0", "-trace", trace)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	// Scan stdout for the listen address, then for session completion
	// (after which every engine is built and the trace file exists).
	var addr string
	done := false
	sc := bufio.NewScanner(stdout)
	deadline := time.After(2 * time.Minute)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for !done {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("twibench exited before completing the session")
			}
			if rest, found := strings.CutPrefix(line, "telemetry listening on "); found {
				addr = strings.TrimSpace(rest)
			}
			if strings.HasPrefix(line, "experiments done") {
				done = true
			}
		case <-deadline:
			t.Fatal("timed out waiting for twibench")
		}
	}
	if addr == "" {
		t.Fatal("no listen address announced")
	}
	go func() { // drain the rest so the child never blocks on stdout
		for range lines {
		}
	}()

	// /metrics: valid exposition carrying both engines' core counters
	// and query-latency histograms.
	body := httpGet(t, "http://"+addr+"/metrics")
	fams, err := telemetry.ParseExposition([]byte(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, name := range []string{
		"twigraph_neo_record_fetches_total",
		"twigraph_neo_pagecache_hits_total",
		"twigraph_sparksee_record_fetches_total",
		"twigraph_neo_query_latency_seconds",
		"twigraph_sparksee_query_latency_seconds",
	} {
		fam, ok := fams[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if strings.HasSuffix(name, "_seconds") {
			if fam.Type != "histogram" {
				t.Errorf("%s type = %s", name, fam.Type)
			}
			var count float64
			for _, s := range fam.Samples {
				if s.Name == name+"_count" {
					count = s.Value
				}
			}
			if count == 0 {
				t.Errorf("%s has zero observations after a workload run", name)
			}
		}
	}

	// /healthz: both engines report ok.
	var health struct {
		Status string `json:"status"`
		Checks map[string]struct {
			OK bool `json:"ok"`
		} `json:"checks"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || !health.Checks["neo"].OK || !health.Checks["sparksee"].OK {
		t.Errorf("healthz = %+v", health)
	}

	// The trace file is Chrome trace-event JSON with real span events.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	var complete int
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			procs[ev.Name] = true
		}
	}
	if complete == 0 {
		t.Error("trace has no complete events")
	}
	if !procs["process_name"] {
		t.Error("trace has no process_name metadata")
	}

	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("twibench exit after SIGTERM: %v", err)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := client.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
		}
		return string(body)
	}
	t.Fatalf("GET %s: %v", url, lastErr)
	return ""
}

// TestTwiqlServeAndTraceExport drives the shell's telemetry commands:
// :serve exposes the open database's metrics and health over HTTP while
// the session runs, and :trace export writes the captured spans as a
// Chrome trace.
func TestTwiqlServeAndTraceExport(t *testing.T) {
	bin := binaries(t)
	work := t.TempDir()
	csvDir := filepath.Join(work, "csv")
	run(t, "twigen", "-out", csvDir, "-users", "200", "-seed", "3")
	run(t, "twiload", "-csv", csvDir, "-engine", "neo", "-out", filepath.Join(work, "dbs"))

	traceFile := filepath.Join(work, "twiql-trace.json")
	cmd := exec.Command(filepath.Join(bin, "twiql"), "-db", filepath.Join(work, "dbs", "neo"))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()

	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	await := func(prefix string) string {
		t.Helper()
		deadline := time.After(time.Minute)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("twiql exited before printing %q", prefix)
				}
				if i := strings.Index(line, prefix); i >= 0 {
					return strings.TrimSpace(line[i+len(prefix):])
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q", prefix)
			}
		}
	}

	io.WriteString(stdin, ":trace on\n")
	io.WriteString(stdin, ":serve 127.0.0.1:0\n")
	addr := strings.Fields(await("telemetry listening on "))[0]

	io.WriteString(stdin, "MATCH (u:user {uid: 1})-[:follows]->(f:user) RETURN count(*);\n")
	await("rows in")

	if _, err := telemetry.ParseExposition([]byte(httpGet(t, "http://"+addr+"/metrics"))); err != nil {
		t.Fatalf("twiql /metrics invalid: %v", err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("twiql healthz status = %q", health.Status)
	}

	io.WriteString(stdin, ":trace export "+traceFile+"\n")
	await("trace events written to")
	io.WriteString(stdin, "\\q\n")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("twiql exit: %v", err)
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("twiql trace not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Error("twiql trace has no span events")
	}
}
