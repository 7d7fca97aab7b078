package salsa

// Integration tests: end-to-end pipelines across modules, exercising the
// combinations a deployment would use rather than single components.

import (
	"math"
	"testing"

	"salsa/internal/stream"
)

// TestDistributedAggregationPipeline models the paper's merge use case
// (§V): several workers sketch disjoint partitions of a stream with shared
// seeds, serialize their sketches, and a coordinator merges the payloads
// and answers global queries.
func TestDistributedAggregationPipeline(t *testing.T) {
	const workers = 4
	opt := Options{Width: 2048, Merge: MergeSum, Seed: 77}
	full := stream.NY18.Generate(200_000, 8)
	exact := stream.NewExact()
	for _, x := range full {
		exact.Observe(x)
	}

	// Each worker sketches its shard and ships bytes.
	payloads := make([][]byte, workers)
	for wkr := 0; wkr < workers; wkr++ {
		cm := MustBuild(CountMinOf(opt)).(*CountMin)
		for i := wkr; i < len(full); i += workers {
			cm.Increment(full[i])
		}
		blob, err := cm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		payloads[wkr] = blob
	}

	// Coordinator decodes and merges.
	global, err := UnmarshalCountMin(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range payloads[1:] {
		part, err := UnmarshalCountMin(blob)
		if err != nil {
			t.Fatal(err)
		}
		global.Merge(part)
	}

	// Global estimates must dominate the global truth, and the heavy
	// items must be accurate.
	for x, f := range exact.Counts() {
		if est := global.Query(x); est < f {
			t.Fatalf("item %d: merged estimate %d < truth %d", x, est, f)
		}
	}
	for _, x := range exact.TopK(10) {
		truth := float64(exact.Count(x))
		if rel := (float64(global.Query(x)) - truth) / truth; rel > 0.05 {
			t.Fatalf("heavy item %d overestimated by %.1f%%", x, rel*100)
		}
	}
}

// TestEpochChangeDetectionPipeline wires trace generation, two-epoch
// sketching, subtraction, and heavy-change extraction.
func TestEpochChangeDetectionPipeline(t *testing.T) {
	opt := Options{Width: 1 << 13, Seed: 21}
	epochA := stream.CH16.Generate(150_000, 9)
	epochB := stream.CH16.Generate(150_000, 10)
	const anomaly = uint64(424242)
	for i := 0; i < 8_000; i++ {
		epochB = append(epochB, anomaly)
	}

	det := NewChangeDetector(opt)
	truth := map[uint64]int64{}
	for _, x := range epochA {
		det.ObserveBefore(x)
		truth[x]--
	}
	for _, x := range epochB {
		det.ObserveAfter(x)
		truth[x]++
	}

	// The injected anomaly must be detected with a near-exact change.
	got := det.Change(anomaly)
	if math.Abs(float64(got-truth[anomaly])) > 0.05*float64(truth[anomaly]) {
		t.Fatalf("anomaly change %d vs truth %d", got, truth[anomaly])
	}
}

// TestMonitorAgainstUnivMon cross-checks two independent heavy-hitter
// paths — CUS+heap and UnivMon's level-0 heap — on the same stream.
func TestMonitorAgainstUnivMon(t *testing.T) {
	data := stream.NY18.Generate(150_000, 11)
	mon := MustBuild(MonitorOf(Options{Width: 1 << 13, Seed: 31}, 20)).(*Monitor)
	um := MustBuild(UnivMonOf(Options{Width: 1 << 11, Seed: 31}, 12, 0)).(*UnivMon)
	exact := stream.NewExact()
	for _, x := range data {
		mon.Process(x)
		um.Process(x)
		exact.Observe(x)
	}
	top := exact.TopK(5)
	inMon := map[uint64]bool{}
	for _, e := range mon.Top() {
		inMon[e.Item] = true
	}
	inUM := map[uint64]bool{}
	for _, e := range um.HeavyHitters() {
		inUM[e.Item] = true
	}
	for _, x := range top {
		if !inMon[x] {
			t.Fatalf("monitor missed top item %d", x)
		}
		if !inUM[x] {
			t.Fatalf("univmon missed top item %d", x)
		}
	}
}

// TestEqualMemoryAccuracyOrdering verifies the paper's qualitative ordering
// at equal memory on a skewed trace: SALSA CUS ≤ SALSA CMS ≤ Baseline CMS
// in mean-squared on-arrival error (Fig. 10's shape).
func TestEqualMemoryAccuracyOrdering(t *testing.T) {
	data := stream.NY18.Generate(300_000, 12)
	type contender struct {
		name string
		cm   *CountMin
	}
	contenders := []contender{
		{"baseline-cms", MustBuild(CountMinOf(Options{Width: 1 << 11, Mode: ModeBaseline, Seed: 41})).(*CountMin)},
		{"salsa-cms", MustBuild(CountMinOf(Options{Width: 1 << 13, Seed: 41})).(*CountMin)},
		{"salsa-cus", MustBuild(ConservativeOf(Options{Width: 1 << 13, Seed: 41})).(*CountMin)},
	}
	exact := stream.NewExact()
	mse := make([]float64, len(contenders))
	for _, x := range data {
		truth := float64(exact.Observe(x))
		for i, c := range contenders {
			c.cm.Increment(x)
			d := float64(c.cm.Query(x)) - truth
			mse[i] += d * d
		}
	}
	if !(mse[2] <= mse[1] && mse[1] <= mse[0]) {
		t.Fatalf("MSE ordering violated: baseline %g, salsa-cms %g, salsa-cus %g",
			mse[0], mse[1], mse[2])
	}
}

// TestDistinctAcrossBackends checks the Linear Counting path over both
// backends against the oracle on every dataset stand-in.
func TestDistinctAcrossBackends(t *testing.T) {
	for _, ds := range stream.Datasets() {
		data := ds.Generate(100_000, 13)
		exact := stream.NewExact()
		baseline := MustBuild(CountMinOf(Options{Width: 1 << 14, Mode: ModeBaseline, Merge: MergeSum, Seed: 51})).(*CountMin)
		slim := MustBuild(CountMinOf(Options{Width: 1 << 14, Merge: MergeSum, Seed: 51})).(*CountMin)
		for _, x := range data {
			exact.Observe(x)
			baseline.Increment(x)
			slim.Increment(x)
		}
		truth := float64(exact.Distinct())
		for name, cm := range map[string]*CountMin{"baseline": baseline, "salsa": slim} {
			est, err := cm.Distinct()
			if err != nil {
				t.Fatalf("%s/%s: %v", ds.Name, name, err)
			}
			if math.Abs(est-truth)/truth > 0.1 {
				t.Fatalf("%s/%s: distinct %f vs %f", ds.Name, name, est, truth)
			}
		}
	}
}
