package salsa

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"salsa/internal/stream"
)

// goldenEnvelopes name the envelopes committed under testdata/golden. The
// files were written by the codec before it encoded into presized buffers,
// so they pin the wire bytes themselves, not merely agreement between the
// current encoder and decoder.
var goldenEnvelopes = []struct {
	name string
	spec Spec
}{
	{"countmin-salsa8", CountMinOf(Options{Width: 1 << 9, Seed: 21})},
	{"countmin-salsa16", CountMinOf(Options{Width: 1 << 9, CounterBits: 16, Seed: 21})},
	{"countmin-compact", CountMinOf(Options{Width: 1 << 9, CompactEncoding: true, Seed: 21})},
	{"countmin-baseline32", CountMinOf(Options{Width: 1 << 9, Mode: ModeBaseline, Seed: 21})},
	{"countmin-tango", CountMinOf(Options{Width: 1 << 9, Mode: ModeTango, Seed: 21})},
	{"conservative", ConservativeOf(Options{Width: 1 << 9, Seed: 21})},
	{"countsketch-salsa", CountSketchOf(Options{Width: 1 << 9, Seed: 21})},
	{"countsketch-baseline", CountSketchOf(Options{Width: 1 << 9, Mode: ModeBaseline, Seed: 21})},
	// The concurrency layers (tags 8 and 15), pinned before their wrapper
	// types were collapsed onto one core per layer.
	{"sharded-monitor", ShardedBy(MonitorOf(Options{Width: 1 << 9, Seed: 21}, 32), 4)},
	{"sharded-windowed-conservative", ShardedBy(Windowed(ConservativeOf(Options{Width: 1 << 9, Merge: MergeSum, Seed: 21}), 4, 5000), 2)},
	{"epoch-countmin", EpochShardedBy(CountMinOf(Options{Width: 1 << 9, Merge: MergeSum, Seed: 21}), 2)},
	{"epoch-monitor", EpochShardedBy(MonitorOf(Options{Width: 1 << 9, Merge: MergeSum, Seed: 21}, 32), 2)},
	{"epoch-windowed-distinct", EpochShardedBy(Windowed(DistinctOf(Options{Width: 1 << 9, Merge: MergeSum, Seed: 21}), 4, 0), 2)},
	// The two windowed rings (tags 5 and 6) on their own, pinned before
	// their decoders were folded into one.
	{"windowed-countmin", Windowed(CountMinOf(Options{Width: 1 << 9, Merge: MergeSum, Seed: 21}), 4, 5000)},
	{"windowed-countsketch", Windowed(CountSketchOf(Options{Width: 1 << 9, Seed: 21}), 4, 5000)},
}

// goldenSketch builds a golden case and feeds it a seeded Zipf stream at
// weight 16, heavy enough that counters merge at 8 and at 16 bits. A
// windowed case rotates once halfway, so the ring odometer is pinned too;
// splitting the stream leaves every other case as one batch would.
func goldenSketch(t *testing.T, spec Spec) Sketch {
	t.Helper()
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	items := stream.Zipf(20_000, 4096, 1.3, 21)
	s.UpdateBatch(items[:10_000], 16)
	if w, ok := s.(interface{ Tick() }); ok {
		w.Tick()
	}
	s.UpdateBatch(items[10_000:], 16)
	return s
}

func TestEnvelopeGolden(t *testing.T) {
	for _, g := range goldenEnvelopes {
		t.Run(g.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", g.name+".envelope"))
			if err != nil {
				t.Fatal(err)
			}
			s := goldenSketch(t, g.spec)
			got, err := Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Marshal no longer reproduces the golden envelope (%d bytes, golden %d)", len(got), len(want))
			}
			back, err := Unmarshal(want)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatal("Marshal(Unmarshal(golden)) differs from the golden envelope")
			}
			switch s.(type) {
			case *CountMin, *CountSketch:
				checkBinarySizes(t, s, len(want))
			}
		})
	}
}
