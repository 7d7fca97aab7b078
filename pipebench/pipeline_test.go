package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"salsa"
	"salsa/internal/salsad"
)

// reduced shrinks w to test size: the same topology and code paths with
// at most four agents, small frames and short sources.
func reduced(w workload) workload {
	w.agents = min(w.agents, 4)
	w.frameItems = 512
	w.prefill = 1024
	w.traceLen = 1 << 13
	return w
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func specNames(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, m := range specs {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchBenchmark runs every workload, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json lists, with
// the units it lists, and that the workloads are the ones it names.
func TestMetricsMatchBenchmark(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program defines %v", listed, defined)
	}
	units := make(map[string]string)
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(reduced(w), 7, 1.5, trace, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct {
				t.Fatalf("%s trace=%v: %s", w.name, trace, res.Problem)
			}
			want := specNames(bench.EndToEnd)
			if trace {
				want = specNames(bench.PerLayer)
			}
			if got := names(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
			for _, m := range res.Metrics {
				if m.Unit != units[m.Name] {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, m.Name, m.Unit, units[m.Name])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
				}
			}
		}
	}
}

// TestRoguePushFailsVerification lands one frame at the root that no agent
// ingested; the check against the sequential reference must catch it.
func TestRoguePushFailsVerification(t *testing.T) {
	w := reduced(workloads[1])
	traces := w.traces(3, w.agents, w.traceLen)
	c, err := newCluster(w, newTracer(), traces, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	ctx := context.Background()
	items := queryBatches(3, traces)[0]
	if err := c.quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.verify(c.exact(), items); err != nil {
		t.Fatalf("clean cluster fails verification: %v", err)
	}

	rogue := salsa.MustBuild(coreSpec())
	rogue.Update(items[0], 1)
	env, err := salsa.Marshal(rogue)
	if err != nil {
		t.Fatal(err)
	}
	up := &salsad.HTTPTransport{Base: c.root.url, Client: c.client}
	ack, err := up.Push(ctx, &salsad.Push{Agent: "rogue", Gen: 1, Seq: 1, Envelope: env})
	if err != nil || ack.Status != salsad.StatusApplied {
		t.Fatalf("rogue push: %v %+v", err, ack)
	}
	if err := c.verify(c.exact(), items); err == nil {
		t.Fatal("verification passed with a rogue frame at the root")
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2}
	reversed := make([]float64, len(base))
	for i, x := range base {
		reversed[len(base)-1-i] = x
	}
	wide := []float64{70, 130, 90, 110, 60, 140, 100, 100, 80, 120}
	nan := math.NaN()
	cases := []struct {
		name     string
		old, cur []float64
		higher   bool
		bound    float64
		want     string
	}{
		{"faster", base, scaled(base, 0.8), false, 0.1, improved},
		{"same values, other order", base, reversed, false, 0.1, unchanged},
		{"slower beyond the bound", base, scaled(base, 1.3), false, 0.1, worse},
		{"slower within the bound", base, scaled(base, 1.05), false, 0.1, unchanged},
		{"gain with too few pairs", base[:5], scaled(base[:5], 0.8), false, 0.1, unresolved},
		{"spread wider than the bound", wide, scaled(wide, 1.02), false, 0.1, unresolved},
		{"spread wide but every new run better", wide, scaled(wide, 0.4), false, 0.1, improved},
		{"higher is better", base, scaled(base, 1.2), true, 0.1, improved},
		{"higher is better, lower came", base, scaled(base, 0.7), true, 0.1, worse},
		{"per-layer worse", base, scaled(base, 1.3), false, nan, worse},
		{"per-layer unchanged", base, reversed, false, nan, unchanged},
	}
	for _, tc := range cases {
		if got, _, _ := verdict(tc.old, tc.cur, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles runs -compare on two report files and checks the
// verdict lines and the exit status.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{
		"end_to_end": [{"name": "push_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "agent.cut.us_p50", "unit": "us", "better": "lower"}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, push, cut float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			jitter := 1 + float64(i%3)/100
			r := report{Schema: "salsabench-perf/v2", Workload: "edge-ingest", Correct: true, Metrics: []metric{
				{Name: "push_ms_p50", Unit: "ms", Value: push * jitter},
				{Name: "agent.cut.us_p50", Unit: "us", Value: cut * jitter},
			}}
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	old := write("old.jsonl", 3, 1000)
	var out bytes.Buffer
	worseSeen, err := runCompare(old, write("slower.jsonl", 4, 500), bench, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !worseSeen {
		t.Errorf("a 33%% slower push_ms_p50 was not reported worse:\n%s", out.String())
	}
	for _, want := range []string{"push_ms_p50", "worse", "agent.cut.us_p50", "improved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if worseSeen, err = runCompare(old, old, bench, &out); err != nil || worseSeen {
		t.Errorf("a file compared with itself: worse=%v err=%v\n%s", worseSeen, err, out.String())
	}
}
