package salsa

// Merge-engine and window-rotation benchmarks, the PR 5 perf trajectory.
// They use only API that exists in earlier checkouts too, so the identical
// file can be dropped into an older worktree for interleaved A/B runs:
//
//	go test -bench 'MergeFrom|WindowRotation' -benchtime=1000x -count=10
//
// BenchmarkMergeFrom measures the steady-state sketch-union path with a
// stable cycle: dst starts as a byte-clone of src, and each op subtracts
// src back out and merges it again, returning dst to the identical state —
// so every iteration performs one same-layout subtraction and one
// same-layout merge of loaded rows (the case window rotation and sharded
// snapshots hit), with no drift toward saturation across iterations. Its
// cms-salsa8-aggregate case instead merges one contribution into a fresh
// copy, decoded outside the timer, of a 16-contribution total: the
// differing-layout merge a salsad root or relay runs when it folds its
// members.
// BenchmarkWindowRotation measures amortized per-rotation cost: each op
// ingests one fixed bucket interval and ticks, so the two ring sizes differ
// only in how much closed-window maintenance a rotation performs (use
// -benchtime well above B so flip costs amortize fairly).

import (
	"testing"

	"salsa/internal/stream"
)

// mergeCycle builds a loaded sketch and a byte-identical clone via the
// universal envelope.
func mergeCycle(b *testing.B, spec Spec, load []uint64) (Sketch, Sketch) {
	b.Helper()
	src := MustBuild(spec)
	src.UpdateBatch(load, 1)
	blob, err := Marshal(src)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := Unmarshal(blob)
	if err != nil {
		b.Fatal(err)
	}
	return dst, src
}

func BenchmarkMergeFrom(b *testing.B) {
	load := stream.Zipf(1<<17, 1<<14, 1.0, 7)
	b.Run("cms-salsa8", func(b *testing.B) {
		dst, src := mergeCycle(b, CountMinOf(Options{Width: 1 << 14, Merge: MergeSum, Seed: 3}), load)
		d, s := dst.(*CountMin), src.(*CountMin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Subtract(s)
			d.Merge(s)
		}
	})
	b.Run("cms-salsa8-aggregate", func(b *testing.B) {
		// A root's or relay's fold: one loaded contribution merged into the
		// total of 16 others fed different streams, whose layouts differ
		// from the contribution's in most counter words.
		spec := CountMinOf(Options{Width: 1 << 14, Merge: MergeSum, Seed: 3})
		agg := MustBuild(spec).(*CountMin)
		for m := uint64(0); m < 16; m++ {
			member := MustBuild(spec).(*CountMin)
			member.UpdateBatch(stream.Zipf(1<<16, 1<<16, 1.0, 100+m), 1)
			agg.Merge(member)
		}
		src := MustBuild(spec).(*CountMin)
		src.UpdateBatch(stream.Zipf(1<<16, 1<<16, 1.0, 99), 1)
		blob, err := Marshal(agg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst, err := Unmarshal(blob)
			if err != nil {
				b.Fatal(err)
			}
			d := dst.(*CountMin)
			b.StartTimer()
			d.Merge(src)
		}
	})
	b.Run("cms-fixed32", func(b *testing.B) {
		dst, src := mergeCycle(b, CountMinOf(Options{Width: 1 << 12, Mode: ModeBaseline, Merge: MergeSum, Seed: 3}), load)
		d, s := dst.(*CountMin), src.(*CountMin)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Subtract(s)
			d.Merge(s)
		}
	})
	b.Run("cs-salsa8", func(b *testing.B) {
		dst, src := mergeCycle(b, CountSketchOf(Options{Width: 1 << 14, Seed: 3}), load)
		d, s := dst.(*CountSketch), src.(*CountSketch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Subtract(s)
			d.Merge(s)
		}
	})
}

func BenchmarkWindowRotation(b *testing.B) {
	const fill = 512
	load := stream.Zipf(1<<16, 1<<13, 1.0, 11)
	for _, buckets := range []int{4, 64} {
		b.Run(map[int]string{4: "w4096-b4", 64: "w4096-b64"}[buckets], func(b *testing.B) {
			w := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 12, Seed: 5}), buckets, 0)).(*WindowedCountMin)
			// Warm every bucket so rotations merge loaded sketches.
			for i := 0; i < buckets; i++ {
				off := (i * fill) % (len(load) - fill)
				w.IncrementBatch(load[off : off+fill])
				w.Tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * fill) % (len(load) - fill)
				w.IncrementBatch(load[off : off+fill])
				w.Tick()
			}
		})
	}
}
