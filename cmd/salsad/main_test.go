package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"salsa"
	"salsa/internal/salsad"
	"salsa/internal/stream"
)

// startServer runs a server-role run() invocation (aggregator or relay)
// on a background goroutine, returns its printed base URL, and gives the
// caller the pipe end whose closing shuts it down.
func startServer(t *testing.T, ctx context.Context, args ...string) (baseURL string, shutdown func() string) {
	t.Helper()
	pr, pw := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		defer outW.Close()
		done <- run(ctx, args, pr, outW)
	}()
	// The first output line carries the bound address (for a relay it is
	// the first URL on the line; the second is its upstream).
	buf := make([]byte, 256)
	n, err := outR.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`http://[0-9.]+:[0-9]+`).FindString(string(buf[:n]))
	if m == "" {
		t.Fatalf("no listen address in %q", buf[:n])
	}
	return m, func() string {
		pw.Close() // stdin EOF → graceful shutdown
		rest, _ := io.ReadAll(outR)
		if err := <-done; err != nil {
			t.Fatalf("server run: %v", err)
		}
		return string(rest)
	}
}

func startAggregator(t *testing.T, extraArgs ...string) (baseURL string, shutdown func() string) {
	t.Helper()
	args := append([]string{"-mode", "aggregator", "-listen", "127.0.0.1:0", "-width", "4096"}, extraArgs...)
	return startServer(t, context.Background(), args...)
}

// TestAgentAggregatorRoundTrip drives both CLI roles end to end over a
// real socket: the agent sketches a generated trace, ships deltas, and
// the aggregator's shutdown summary accounts for the applied frames.
func TestAgentAggregatorRoundTrip(t *testing.T) {
	base, shutdown := startAggregator(t)

	var out strings.Builder
	err := run(context.Background(), []string{
		"-mode", "agent", "-addr", base, "-id", "edge-test",
		"-dataset", "NY18", "-n", "30000", "-width", "4096", "-pushevery", "10000",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "agent edge-test") || !strings.Contains(got, "30000 items") {
		t.Fatalf("agent summary missing:\n%s", got)
	}

	tail := shutdown()
	if !strings.Contains(tail, "frames applied") || strings.Contains(tail, "0 frames applied") {
		t.Fatalf("aggregator summary did not account for pushes:\n%s", tail)
	}
}

// TestAgentStdinPath feeds line-delimited items through stdin, the
// production path for piping logs into an edge agent.
func TestAgentStdinPath(t *testing.T) {
	base, shutdown := startAggregator(t)
	defer shutdown()

	var in strings.Builder
	for i := 0; i < 500; i++ {
		in.WriteString("flow-")
		in.WriteByte(byte('a' + i%7))
		in.WriteString("\n")
	}
	var out strings.Builder
	err := run(context.Background(), []string{
		"-mode", "agent", "-addr", base, "-id", "edge-stdin", "-width", "4096", "-pushevery", "200",
	}, strings.NewReader(in.String()), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "500 items") {
		t.Fatalf("wrong volume:\n%s", out.String())
	}
}

// TestAgentAgainstLibraryAggregator points the CLI agent at a
// library-embedded aggregator (httptest + salsad.Handler): the two
// surfaces are the same protocol.
func TestAgentAgainstLibraryAggregator(t *testing.T) {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{
		Spec: salsa.CountMinOf(salsa.Options{Width: 4096, Merge: salsa.MergeSum, Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(salsad.Handler(agg))
	defer srv.Close()

	var out strings.Builder
	err = run(context.Background(), []string{
		"-mode", "agent", "-addr", srv.URL, "-id", "edge-lib",
		"-dataset", "NY18", "-n", "10000", "-width", "4096", "-pushevery", "4000",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Stats().Applied == 0 {
		t.Fatal("no frames reached the library aggregator")
	}
	if top, err := agg.Top(3); err != nil || len(top) == 0 {
		t.Fatalf("no heavy hitters after CLI ingest: top=%v err=%v", top, err)
	}
}

// TestAgentRefusesToGuessGeneration: when /v1/resume fails, a restarted
// agent must exit with an error. Starting it at a guessed generation would
// reuse a generation the aggregator has already seen, and the aggregator
// would drop every frame of the new run as a duplicate.
func TestAgentRefusesToGuessGeneration(t *testing.T) {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{
		Spec: salsa.CountMinOf(salsa.Options{Width: 4096, Merge: salsa.MergeSum, Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := salsad.Handler(agg)
	var resumeDown atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if resumeDown.Load() && r.URL.Path == "/v1/resume" {
			http.Error(w, "resume unavailable", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	args := []string{
		"-mode", "agent", "-addr", srv.URL, "-id", "edge-x",
		"-dataset", "NY18", "-n", "30000", "-width", "4096", "-pushevery", "10000",
	}
	if err := run(context.Background(), args, strings.NewReader(""), io.Discard); err != nil {
		t.Fatal(err)
	}
	applied := agg.Stats().Applied

	resumeDown.Store(true)
	var out strings.Builder
	err = run(context.Background(), args, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("second run with /v1/resume down: err = %v, want a resume error; output:\n%s", err, out.String())
	}
	if st := agg.Stats(); st.Duplicates != 0 || st.Applied != applied {
		t.Fatalf("second run reached the aggregator: %d duplicates, %d applied (was %d)", st.Duplicates, st.Applied, applied)
	}
}

// TestAgentRestartSkipsShippedPrefix reruns a -dataset agent under the
// same id: the rerun resumes after the cursor the aggregator holds, so
// the root keeps counting the trace once.
func TestAgentRestartSkipsShippedPrefix(t *testing.T) {
	spec := salsa.CountMinOf(salsa.Options{Width: 4096, Merge: salsa.MergeSum, Seed: 1})
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(salsad.Handler(agg))
	defer srv.Close()

	ref := salsa.MustBuild(spec)
	for _, x := range stream.NY18.Generate(30000, 1) {
		ref.Update(x, 1)
	}
	want, err := salsa.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-mode", "agent", "-addr", srv.URL, "-id", "edge-x",
		"-dataset", "NY18", "-n", "30000", "-width", "4096", "-pushevery", "10000",
	}
	for i := 1; i <= 2; i++ {
		if err := run(context.Background(), args, strings.NewReader(""), io.Discard); err != nil {
			t.Fatal(err)
		}
		got, err := agg.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: the root differs from one pass over the trace (resume cursor %d)", i, agg.Resume("edge-x").Cursor)
		}
	}
}

// TestRelayChainOverSockets stands up the full three-tier chain — root
// aggregator, relay, edge agent — over real sockets. The agent's frames
// land in the relay's table; the relay's shutdown ships the merged delta
// upstream; the root's summary accounts for it.
func TestRelayChainOverSockets(t *testing.T) {
	rootURL, shutdownRoot := startAggregator(t)
	// A long push interval keeps the cadence loop quiet; the graceful
	// shutdown's final push is what ships the table — deterministically.
	relayURL, shutdownRelay := startServer(t, context.Background(),
		"-mode", "relay", "-listen", "127.0.0.1:0", "-addr", rootURL,
		"-id", "relay-test", "-width", "4096", "-pushinterval", "1m")

	var out strings.Builder
	err := run(context.Background(), []string{
		"-mode", "agent", "-addr", relayURL, "-id", "edge-under-relay",
		"-dataset", "NY18", "-n", "20000", "-width", "4096", "-pushevery", "8000",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}

	relayTail := shutdownRelay()
	if !strings.Contains(relayTail, "frames applied downstream") ||
		strings.Contains(relayTail, "0 frames applied downstream") {
		t.Fatalf("relay absorbed nothing:\n%s", relayTail)
	}
	if !strings.Contains(relayTail, "shipped upstream") ||
		strings.Contains(relayTail, "0 shipped upstream") {
		t.Fatalf("relay shipped nothing upstream:\n%s", relayTail)
	}
	rootTail := shutdownRoot()
	if !strings.Contains(rootTail, "frames applied") || strings.Contains(rootTail, "0 frames applied") {
		t.Fatalf("root never saw the relay's frames:\n%s", rootTail)
	}
}

// TestDurableShutdownSnapshot: a -datadir aggregator persists a final
// snapshot at shutdown, and a restart over the same directory restores
// it instead of starting empty.
func TestDurableShutdownSnapshot(t *testing.T) {
	dir := t.TempDir()
	base, shutdown := startAggregator(t, "-datadir", dir)

	var out strings.Builder
	err := run(context.Background(), []string{
		"-mode", "agent", "-addr", base, "-id", "edge-durable",
		"-dataset", "NY18", "-n", "10000", "-width", "4096", "-pushevery", "4000",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	tail := shutdown()
	if !strings.Contains(tail, "final snapshot persisted") {
		t.Fatalf("no final snapshot in shutdown output:\n%s", tail)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.salsad"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot files in %s: %v", dir, err)
	}

	// The restarted process must restore cleanly (no resync warning) and
	// hand the agent its persisted frontier.
	_, shutdown2 := startAggregator(t, "-datadir", dir)
	tail2 := shutdown2()
	if strings.Contains(tail2, "restore rejected") {
		t.Fatalf("restart rejected its own snapshot:\n%s", tail2)
	}
}

// TestServerSignalShutdown cancels the server's context — the in-process
// stand-in for SIGTERM — and expects the same graceful summary the
// stdin-EOF path produces.
func TestServerSignalShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	defer pw.Close()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		defer outW.Close()
		done <- run(ctx, []string{"-mode", "aggregator", "-listen", "127.0.0.1:0", "-width", "4096"}, pr, outW)
	}()
	buf := make([]byte, 256)
	if _, err := outR.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel() // SIGTERM
	rest, _ := io.ReadAll(outR)
	if err := <-done; err != nil {
		t.Fatalf("signal shutdown returned error: %v", err)
	}
	if !strings.Contains(string(rest), "shutting down") {
		t.Fatalf("no graceful summary after signal:\n%s", rest)
	}
}

// TestAgentInterruptedFlush: an agent whose context is already cancelled
// stops ingesting immediately but still exits cleanly through the final
// flush path.
func TestAgentInterruptedFlush(t *testing.T) {
	base, shutdown := startAggregator(t)
	defer shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{
		"-mode", "agent", "-addr", base, "-id", "edge-sigterm",
		"-dataset", "NY18", "-n", "30000", "-width", "4096",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "agent edge-sigterm") {
		t.Fatalf("no summary after interrupt:\n%s", out.String())
	}
}

// TestRunBadArgs: broken invocations error out instead of half-starting.
func TestRunBadArgs(t *testing.T) {
	for name, args := range map[string][]string{
		"no mode":         {},
		"unknown mode":    {"-mode", "nope"},
		"unknown flag":    {"-bogus"},
		"bad spec":        {"-mode", "aggregator", "-spec", "nope("},
		"agent no addr":   {"-mode", "agent"},
		"bad dataset":     {"-mode", "agent", "-addr", "http://127.0.0.1:1", "-id", "x", "-dataset", "nope"},
		"windowed spec":   {"-mode", "aggregator", "-spec", "windowed(4,100,cms)"},
		"agent bad spec":  {"-mode", "agent", "-addr", "http://127.0.0.1:1", "-id", "x", "-spec", "trailing junk"},
		"unreachable agg": {"-mode", "agent", "-addr", "http://127.0.0.1:1", "-id", "x", "-dataset", "NY18", "-n", "100", "-timeout", "50ms", "-attempts", "1"},
	} {
		var out strings.Builder
		if err := run(context.Background(), args, strings.NewReader(""), &out); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

// TestHelpExitsClean: -h prints usage and returns nil like the other cmds.
func TestHelpExitsClean(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}, strings.NewReader(""), io.Discard); err != nil {
		t.Fatal(err)
	}
}
