package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunList: -list prints every experiment id with a title.
func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, id := range []string{"fig4a", "fig8cd"} {
		if !strings.Contains(got, id) {
			t.Fatalf("-list output missing %q:\n%s", id, got)
		}
	}
}

// TestRunExperiment: a tiny single-figure run emits the CSV block shape.
func TestRunExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig4a", "-n", "20000", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "series,x,y,ci95") {
		t.Fatalf("missing CSV header:\n%s", got)
	}
	if strings.Count(got, ",") < 8 {
		t.Fatalf("suspiciously few data points:\n%s", got)
	}
}

// TestRunTopology: -topology builds the spec through the public algebra
// and reports ingest/query rates; windowed topologies add rotation cost,
// and every run proves the universal-envelope round trip.
func TestRunTopology(t *testing.T) {
	for _, expr := range []string{
		"cms",
		"windowed(3,2500,cus)",
		"sharded(2,windowed(3,2500,cms))",
		"monitor(8)",
		// Every promoted kind and decorator must have a query surface
		// here — ParseSpec accepting a spec that -topology then refuses
		// to benchmark is a regression.
		"aee",
		"distinct",
		"univmon(6,20)",
		"filtered(cus)",
		"tiered(cms)",
		"windowed(3,2500,distinct)",
		"sharded(2,filtered(cms))",
		"sharded(2,tiered(cms))",
		"epoch(2,cms)",
		"epoch(2,monitor(16))",
		"epoch(2,windowed(3,0,distinct))",
	} {
		var out strings.Builder
		if err := run([]string{"-topology", expr, "-n", "30000"}, &out); err != nil {
			t.Fatalf("-topology %s: %v", expr, err)
		}
		got := out.String()
		for _, metric := range []string{"metric,value", "ingest_mops,", "query_mops,", "memory_kib,", "envelope_kib,"} {
			if !strings.Contains(got, metric) {
				t.Fatalf("-topology %s missing %q:\n%s", expr, metric, got)
			}
		}
		if strings.Contains(expr, "windowed") && !strings.Contains(got, "rotation_us,") {
			t.Fatalf("-topology %s missing rotation cost:\n%s", expr, got)
		}
	}
	// Every concurrency-layer product ingests from -procs goroutines,
	// whatever its backend, and the header says so.
	for _, expr := range []string{
		"sharded(4,cms)",
		"sharded(4,aee)",
		"sharded(2,windowed(4,1000,monitor(16)))",
		"epoch(2,cms)",
	} {
		var out strings.Builder
		if err := run([]string{"-topology", expr, "-n", "20000", "-procs", "2"}, &out); err != nil {
			t.Fatalf("-topology %s: %v", expr, err)
		}
		if !strings.Contains(out.String(), ", procs=2,") {
			t.Fatalf("-topology %s -procs 2 did not ingest from 2 goroutines:\n%s", expr, out.String())
		}
	}
}

// TestRunTopologyErrors: malformed specs and invalid compositions are
// reported as errors, not panics.
func TestRunTopologyErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topology", "bogus(3)"}, &out); err == nil {
		t.Fatal("bogus spec: want error")
	}
	if err := run([]string{"-topology", "sharded(2,sharded(2,cms))"}, &out); err == nil {
		t.Fatal("invalid composition: want error")
	}
}

// TestRunThroughput: the multi-core mode reports one row per backend/path.
func TestRunThroughput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-throughput", "-n", "20000", "-procs", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "backend,path,mops") || !strings.Contains(got, "countmin,writer,") {
		t.Fatalf("unexpected throughput output:\n%s", got)
	}
}

// TestRunPerf: -perf reports every backend/path pair and, with -json,
// writes a well-formed BENCH report whose items/s are positive.
func TestRunPerf(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_test.json")
	var out strings.Builder
	if err := run([]string{"-perf", "-n", "20000", "-label", "test", "-json", jsonPath}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "backend,path,ns_per_op,mops") {
		t.Fatalf("missing perf CSV header:\n%s", got)
	}
	for _, backend := range []string{"countmin-salsa", "countmin-tango", "conservative-salsa", "countsketch-salsa"} {
		for _, path := range []string{"update", "update-batch", "query", "query-batch"} {
			if !strings.Contains(got, backend+","+path+",") {
				t.Fatalf("missing %s/%s row:\n%s", backend, path, got)
			}
		}
	}
	payload, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report perfReport
	if err := json.Unmarshal(payload, &report); err != nil {
		t.Fatalf("BENCH json does not parse: %v", err)
	}
	if report.Schema != "salsabench-perf/v1" || report.Label != "test" || len(report.Points) == 0 {
		t.Fatalf("unexpected report header: %+v", report)
	}
	for _, p := range report.Points {
		if p.ItemsPerSec <= 0 || p.NsPerOp <= 0 {
			t.Fatalf("non-positive measurement: %+v", p)
		}
	}
}

// TestRunProfiles: the pprof flags produce non-empty profile files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	if err := run([]string{"-perf", "-n", "5000", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("empty profile %s", p)
		}
	}
}

// TestRunErrors: bad invocations return errors instead of exiting.
func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no arguments: want usage error")
	}
	if err := run([]string{"-experiment", "nope", "-n", "1000"}, &out); err == nil {
		t.Fatal("unknown experiment: want error")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Fatal("unknown flag: want error")
	}
}
