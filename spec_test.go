package salsa

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestOptionsValidate is the table of every invalid Options combination
// the error-returning construction path must reject (and the deprecated
// panicking shims turn into panics).
func TestOptionsValidate(t *testing.T) {
	valid := Options{Width: 1 << 10, Seed: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name string
		opt  Options
		want string // substring of the error
	}{
		{"zero-width", Options{}, "power of two"},
		{"non-power-of-two-width", Options{Width: 100}, "power of two"},
		{"negative-width", Options{Width: -8}, "power of two"},
		{"negative-depth", Options{Width: 64, Depth: -1}, "negative Depth"},
		{"huge-depth", Options{Width: 64, Depth: 4096}, "exceeds the maximum"},
		{"unknown-mode", Options{Width: 64, Mode: Mode(9)}, "unknown Mode"},
		{"unknown-merge", Options{Width: 64, Merge: Merge(9)}, "unknown Merge"},
		{"oversized-counterbits", Options{Width: 64, CounterBits: 128}, "CounterBits"},
		{"npot-counterbits", Options{Width: 64, CounterBits: 3}, "power of two"},
		{"salsa-64bit-counters", Options{Width: 64, CounterBits: 64}, "exceeds 32"},
		{"salsa-narrow-width", Options{Width: 4, CounterBits: 8}, "64-bit word"},
		{"compact-narrow-width", Options{Width: 16, CompactEncoding: true}, "32-counter group"},
		{"compact-baseline", Options{Width: 64, Mode: ModeBaseline, CompactEncoding: true}, "CompactEncoding requires ModeSALSA"},
		{"compact-tango", Options{Width: 64, Mode: ModeTango, CompactEncoding: true}, "CompactEncoding requires ModeSALSA"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
			// Every generic violation must also fail Build for every leaf.
			for _, spec := range []Spec{
				CountMinOf(tc.opt), ConservativeOf(tc.opt), CountSketchOf(tc.opt),
				MonitorOf(tc.opt, 4), TopKOf(tc.opt, 4),
			} {
				if _, err := Build(spec); err == nil {
					t.Fatalf("Build(%s) accepted invalid options", spec)
				}
			}
		})
	}
}

// TestBuildRejectsInvalidCompositions is the table of kind- and
// decorator-level invalid combinations.
func TestBuildRejectsInvalidCompositions(t *testing.T) {
	opt := Options{Width: 64, Seed: 1}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"tango-countsketch", CountSketchOf(Options{Width: 64, Mode: ModeTango}), "ModeTango"},
		{"maxmerge-countsketch", CountSketchOf(Options{Width: 64, Merge: MergeMax}), "MergeSum"},
		{"one-bit-countsketch", CountSketchOf(Options{Width: 64, CounterBits: 1}), "2-bit"},
		{"tango-topk", TopKOf(Options{Width: 64, Mode: ModeTango}, 4), "ModeTango"},
		{"zero-k-monitor", MonitorOf(opt, 0), "positive k"},
		{"negative-k-topk", TopKOf(opt, -3), "positive k"},
		{"zero-buckets", Windowed(CountMinOf(opt), 0, 100), "at least one bucket"},
		{"huge-buckets", Windowed(CountMinOf(opt), 1<<20, 100), "exceed the maximum"},
		{"negative-bucket-interval", Windowed(CountMinOf(opt), 4, -1), "negative bucket interval"},
		{"maxmerge-windowed", Windowed(CountMinOf(Options{Width: 64, Merge: MergeMax}), 4, 100), "MergeSum"},
		{"zero-shards", ShardedBy(CountMinOf(opt), 0), "positive shard count"},
		{"negative-shards", ShardedBy(CountMinOf(opt), -2), "positive shard count"},
		{"huge-shards", ShardedBy(CountMinOf(opt), 1<<17), "exceeds the maximum"},
		{"windowed-windowed", Windowed(Windowed(CountMinOf(opt), 4, 100), 4, 100), "cannot decorate"},
		{"windowed-sharded", Windowed(ShardedBy(CountMinOf(opt), 4), 4, 100), "cannot decorate"},
		{"sharded-sharded", ShardedBy(ShardedBy(CountMinOf(opt), 4), 4), "cannot decorate"},
		{"windowed-topk", Windowed(TopKOf(opt, 4), 4, 100), "TopK"},
		{"sharded-topk", ShardedBy(TopKOf(opt, 4), 4), "TopK"},
		{"windowed-univmon", Windowed(UnivMonOf(opt, 4, 4), 4, 100), "cannot decorate"},
		{"sharded-univmon", ShardedBy(UnivMonOf(opt, 4, 4), 2), "cannot decorate"},
		{"windowed-aee", Windowed(AEEOf(opt), 4, 100), "downsampling"},
		{"tango-aee", AEEOf(Options{Width: 64, Mode: ModeTango}), "ModeTango"},
		{"maxmerge-aee", AEEOf(Options{Width: 64, Merge: MergeMax}), "overflow"},
		{"compact-aee", AEEOf(Options{Width: 64, CompactEncoding: true}), "CompactEncoding"},
		{"tango-distinct", DistinctOf(Options{Width: 64, Mode: ModeTango}), "zero fractions"},
		{"tango-univmon", UnivMonOf(Options{Width: 64, Mode: ModeTango}, 4, 4), "ModeTango"},
		{"zero-levels-univmon", leafSpec{kind: kindUnivMon, opt: opt, k: 4}, "levels"},
		{"huge-levels-univmon", UnivMonOf(opt, 65, 4), "levels"},
		{"filtered-countsketch", Filtered(CountSketchOf(opt)), "overestimate semantics"},
		{"filtered-windowed", Filtered(Windowed(CountMinOf(opt), 4, 100)), "cannot decorate"},
		{"tiered-cus", Tiered(ConservativeOf(opt)), "Count-Min"},
		{"tiered-nil", Tiered(nil), "nil spec"},
		{"filtered-nil", Filtered(nil), "nil spec"},
		{"windowed-filtered", Windowed(Filtered(CountMinOf(opt)), 4, 100), "cannot decorate"},
		{"sharded-windowed-distinct", ShardedBy(Windowed(DistinctOf(opt), 4, 100), 2), "WindowedDistinct"},
		{"windowed-nil", Windowed(nil, 4, 100), "nil spec"},
		{"sharded-nil", ShardedBy(nil, 4), "nil spec"},
		{"nil", nil, "nil spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Build(tc.spec)
			if err == nil {
				t.Fatalf("Build accepted invalid composition, returned %T", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestCompositionErrorType pins the typed rejection: decorator mismatches
// surface as *CompositionError carrying the decorator, the inner spec
// expression, and a reason, so callers can branch on errors.As.
func TestCompositionErrorType(t *testing.T) {
	opt := Options{Width: 64, Seed: 1}
	_, err := Build(Windowed(UnivMonOf(opt, 4, 4), 4, 100))
	var ce *CompositionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CompositionError", err)
	}
	if ce.Decorator != "Windowed" || ce.Inner == "" || ce.Reason == "" {
		t.Fatalf("CompositionError fields incomplete: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "cannot decorate") {
		t.Fatalf("Error() = %q", ce.Error())
	}
	// Plain geometry errors stay untyped.
	_, err = Build(CountMinOf(Options{Width: 3}))
	if errors.As(err, &ce) {
		t.Fatal("options error should not be a CompositionError")
	}
}

// TestBuildRejectsHugeTrackerK: tracker capacities beyond the envelope's
// decode bound are rejected at Build time, so every constructible tracker
// is serializable. On 32-bit platforms such a k is not representable as
// int at all, hence the guard.
func TestBuildRejectsHugeTrackerK(t *testing.T) {
	big := int64(maxHeapK) + 1
	if int64(int(big)) != big {
		t.Skip("k beyond the decode bound does not fit int on this platform")
	}
	for _, spec := range []Spec{
		MonitorOf(Options{Width: 64, Seed: 1}, int(big)),
		TopKOf(Options{Width: 64, Seed: 1}, int(big)),
	} {
		if s, err := Build(spec); err == nil {
			t.Fatalf("Build(%v) accepted k %d, returned %T", spec, big, s)
		} else if !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Fatalf("Build(%v) error = %v, want the k bound", spec, err)
		}
	}
}

// TestBuildConcreteTypes pins the concrete type behind every supported
// composition — the monomorphic types PR 3's hot paths depend on.
func TestBuildConcreteTypes(t *testing.T) {
	opt := Options{Width: 64, Seed: 1}
	cases := []struct {
		spec Spec
		want any
	}{
		{CountMinOf(opt), (*CountMin)(nil)},
		{ConservativeOf(opt), (*CountMin)(nil)},
		{CountSketchOf(opt), (*CountSketch)(nil)},
		{MonitorOf(opt, 4), (*Monitor)(nil)},
		{TopKOf(opt, 4), (*TopK)(nil)},
		{Windowed(CountMinOf(opt), 4, 100), (*WindowedCountMin)(nil)},
		{Windowed(ConservativeOf(opt), 4, 100), (*WindowedCountMin)(nil)},
		{Windowed(CountSketchOf(opt), 4, 100), (*WindowedCountSketch)(nil)},
		{Windowed(MonitorOf(opt, 4), 4, 100), (*WindowedMonitor)(nil)},
		{ShardedBy(CountMinOf(opt), 2), (*ShardedCountMin)(nil)},
		{ShardedBy(ConservativeOf(opt), 2), (*ShardedCountMin)(nil)},
		{ShardedBy(CountSketchOf(opt), 2), (*ShardedCountSketch)(nil)},
		{ShardedBy(MonitorOf(opt, 4), 2), (*ShardedMonitor)(nil)},
		{ShardedBy(Windowed(CountMinOf(opt), 4, 100), 2), (*ShardedWindowedCountMin)(nil)},
		{ShardedBy(Windowed(CountSketchOf(opt), 4, 100), 2), (*ShardedWindowedCountSketch)(nil)},
		{ShardedBy(Windowed(MonitorOf(opt, 4), 4, 100), 2), (*ShardedWindowedMonitor)(nil)},
		{UnivMonOf(opt, 8, 16), (*UnivMon)(nil)},
		{AEEOf(opt), (*AEE)(nil)},
		{DistinctOf(opt), (*Distinct)(nil)},
		{Windowed(DistinctOf(opt), 4, 100), (*WindowedDistinct)(nil)},
		{Filtered(CountMinOf(opt)), (*ColdFilter)(nil)},
		{Filtered(ConservativeOf(opt)), (*ColdFilter)(nil)},
		{Tiered(CountMinOf(opt)), (*Pyramid)(nil)},
		{ShardedBy(AEEOf(opt), 2), (*ShardedAEE)(nil)},
		{ShardedBy(DistinctOf(opt), 2), (*ShardedDistinct)(nil)},
		{ShardedBy(Filtered(ConservativeOf(opt)), 2), (*ShardedColdFilter)(nil)},
		{ShardedBy(Tiered(CountMinOf(opt)), 2), (*ShardedPyramid)(nil)},
		{EpochShardedBy(CountMinOf(opt), 2), (*EpochCountMin)(nil)},
		{EpochShardedBy(ConservativeOf(opt), 2), (*EpochCountMin)(nil)},
		{EpochShardedBy(CountSketchOf(opt), 2), (*EpochCountSketch)(nil)},
		{EpochShardedBy(MonitorOf(opt, 4), 2), (*EpochMonitor)(nil)},
		{EpochShardedBy(DistinctOf(opt), 2), (*EpochDistinct)(nil)},
		{EpochShardedBy(Windowed(CountMinOf(opt), 4, 0), 2), (*EpochWindowedCountMin)(nil)},
		{EpochShardedBy(Windowed(CountSketchOf(opt), 4, 0), 2), (*EpochWindowedCountSketch)(nil)},
		{EpochShardedBy(Windowed(DistinctOf(opt), 4, 0), 2), (*EpochWindowedDistinct)(nil)},
	}
	for _, tc := range cases {
		s, err := Build(tc.spec)
		if err != nil {
			t.Fatalf("Build(%s): %v", tc.spec, err)
		}
		if gotT, wantT := fmt.Sprintf("%T", s), fmt.Sprintf("%T", tc.want); gotT != wantT {
			t.Fatalf("Build(%s) = %s, want %s", tc.spec, gotT, wantT)
		}
	}
}

// TestSpecString pins the expression syntax ParseSpec consumes.
func TestSpecString(t *testing.T) {
	opt := Options{Width: 64}
	cases := []struct {
		spec Spec
		want string
	}{
		{CountMinOf(opt), "cms"},
		{ConservativeOf(opt), "cus"},
		{CountSketchOf(opt), "cs"},
		{MonitorOf(opt, 10), "monitor(10)"},
		{TopKOf(opt, 5), "topk(5)"},
		{Windowed(CountMinOf(opt), 4, 65536), "windowed(4,65536,cms)"},
		{ShardedBy(Windowed(CountMinOf(opt), 4, 65536), 8), "sharded(8,windowed(4,65536,cms))"},
		{UnivMonOf(opt, 12, 50), "univmon(12,50)"},
		{AEEOf(opt), "aee"},
		{DistinctOf(opt), "distinct"},
		{Windowed(DistinctOf(opt), 4, 100), "windowed(4,100,distinct)"},
		{Filtered(ConservativeOf(opt)), "filtered(cus)"},
		{Tiered(CountMinOf(opt)), "tiered(cms)"},
		{ShardedBy(Filtered(CountMinOf(opt)), 4), "sharded(4,filtered(cms))"},
	}
	for _, tc := range cases {
		if got := tc.spec.String(); got != tc.want {
			t.Fatalf("String() = %q, want %q", got, tc.want)
		}
	}
}
