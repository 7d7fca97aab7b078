package salsa

// One benchmark per evaluation figure (named by the ids `salsabench -list`
// maps to the paper's figures, e.g. fig8ab = Fig. 8a,b): these cover the
// throughput claims (Figs. 8a/b, 10e–h, 16c/d) directly and exercise the
// exact sketch configurations behind the error figures, whose series are
// regenerated by cmd/salsabench. The Ablation benches time the design
// choices discussed in §IV (encoding, merge policy, fine-grained merging,
// splitting).
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"salsa/internal/abc"
	"salsa/internal/aee"
	"salsa/internal/coldfilter"
	"salsa/internal/core"
	"salsa/internal/pyramid"
	"salsa/internal/sketch"
	"salsa/internal/stream"
	"salsa/internal/univmon"
)

var (
	benchOnce   sync.Once
	benchTrace  []uint64
	benchItems  []uint64 // distinct items, for query benches
	benchStream = func() []uint64 {
		benchOnce.Do(func() {
			benchTrace = stream.NY18.Generate(1<<18, 99)
			seen := map[uint64]bool{}
			for _, x := range benchTrace {
				if !seen[x] {
					seen[x] = true
					benchItems = append(benchItems, x)
				}
			}
		})
		return benchTrace
	}
)

// benchMask returns the index mask for cycling over data with i&mask; the
// masking trick requires a power-of-two length, so assert it instead of
// silently reading a biased subset if the trace generator ever changes.
func benchMask(b *testing.B, data []uint64) int {
	b.Helper()
	if len(data) == 0 || len(data)&(len(data)-1) != 0 {
		b.Fatalf("bench stream length %d must be a power of two for mask indexing", len(data))
	}
	return len(data) - 1
}

func benchUpdates(b *testing.B, update func(x uint64)) {
	data := benchStream()
	mask := benchMask(b, data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(data[i&mask])
	}
}

func benchQueries(b *testing.B, update func(x uint64), query func(x uint64)) {
	data := benchStream()
	for _, x := range data {
		update(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(benchItems[i%len(benchItems)])
	}
}

// BenchmarkSingleUpdate isolates the single-item monomorphic fast paths —
// one Update per op on the internal sketches, no facade, no figure-scaling
// — so fast-path regressions are visible without the figure benches' mixed
// costs. The SingleQuery companion times the read side.
func BenchmarkSingleUpdate(b *testing.B) {
	type updater interface{ Update(uint64, int64) }
	for _, c := range []struct {
		name  string
		build func() updater
	}{
		{"CMS/salsa8", func() updater {
			return sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		}},
		{"CMS/baseline32", func() updater { return sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1) }},
		{"CMS/tango8", func() updater {
			return sketch.NewCMS(4, 1<<14, sketch.TangoRow(8, core.MaxMerge), 1)
		}},
		{"CUS/salsa8", func() updater {
			return sketch.NewCUS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		}},
		{"CUS/baseline32", func() updater { return sketch.NewCUS(4, 1<<12, sketch.FixedRow(32), 1) }},
		{"CMS/salsa16", func() updater {
			return sketch.NewCMS(4, 1<<13, sketch.SalsaRow(16, core.MaxMerge, false), 1)
		}},
		{"CUS/tango8", func() updater {
			return sketch.NewCUS(4, 1<<14, sketch.TangoRow(8, core.MaxMerge), 1)
		}},
		{"CS/salsasign8", func() updater {
			return sketch.NewCountSketch(5, 1<<14, sketch.SalsaSignRow(8, false), 1)
		}},
		{"CS/salsasign16", func() updater {
			return sketch.NewCountSketch(5, 1<<13, sketch.SalsaSignRow(16, false), 1)
		}},
		{"CS/baselinesign", func() updater {
			return sketch.NewCountSketch(5, 1<<12, sketch.FixedSignRow(32), 1)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			sk := c.build()
			benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
		})
	}
}

// BenchmarkSingleQuery times the single-item query fast paths on a loaded
// sketch.
func BenchmarkSingleQuery(b *testing.B) {
	b.Run("CMS/salsa8", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("CMS/baseline32", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("CMS/salsa16", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<13, sketch.SalsaRow(16, core.MaxMerge, false), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("CMS/tango8", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.TangoRow(8, core.MaxMerge), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("CS/salsasign8", func(b *testing.B) {
		sk := sketch.NewCountSketch(5, 1<<14, sketch.SalsaSignRow(8, false), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("CS/salsasign16", func(b *testing.B) {
		sk := sketch.NewCountSketch(5, 1<<13, sketch.SalsaSignRow(16, false), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
}

// BenchmarkBatchUpdate times the batch kernels: UpdateBatch and QueryBatch
// over one 256-item chunk per op, the chunk size the sketches process
// internally. The query side runs on a sketch loaded with the whole trace.
func BenchmarkBatchUpdate(b *testing.B) {
	type batchSketch interface {
		UpdateBatch(items []uint64, v int64)
		queryBatch(items []uint64)
	}
	for _, tc := range []struct {
		name  string
		build func() batchSketch
	}{
		{"CMS/salsa8", func() batchSketch {
			return cmsBatch{sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)}
		}},
		{"CMS/salsa16", func() batchSketch {
			return cmsBatch{sketch.NewCMS(4, 1<<13, sketch.SalsaRow(16, core.MaxMerge, false), 1)}
		}},
		{"CMS/tango8", func() batchSketch {
			return cmsBatch{sketch.NewCMS(4, 1<<14, sketch.TangoRow(8, core.MaxMerge), 1)}
		}},
		{"CS/salsasign8", func() batchSketch {
			return csBatch{sketch.NewCountSketch(5, 1<<14, sketch.SalsaSignRow(8, false), 1)}
		}},
		{"CS/salsasign16", func() batchSketch {
			return csBatch{sketch.NewCountSketch(5, 1<<13, sketch.SalsaSignRow(16, false), 1)}
		}},
	} {
		data := benchStream()
		chunks := len(data) / 256
		b.Run(tc.name+"/update", func(b *testing.B) {
			sk := tc.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % chunks * 256
				sk.UpdateBatch(data[c:c+256], 1)
			}
		})
		b.Run(tc.name+"/query", func(b *testing.B) {
			sk := tc.build()
			sk.UpdateBatch(data, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % chunks * 256
				sk.queryBatch(data[c : c+256])
			}
		})
	}
}

// cmsBatch and csBatch give BenchmarkBatchUpdate one QueryBatch signature,
// each with a reused destination buffer.
type cmsBatch struct{ *sketch.CMS }

func (c cmsBatch) queryBatch(items []uint64) { benchSinkU = c.QueryBatch(items, benchSinkU[:0]) }

type csBatch struct{ *sketch.CountSketch }

func (c csBatch) queryBatch(items []uint64) { benchSinkI = c.QueryBatch(items, benchSinkI[:0]) }

var (
	benchSinkU []uint64
	benchSinkI []int64
)

// BenchmarkFig04CounterScaling times CMS updates across SALSA base sizes
// (the Fig. 4 configurations; error series via `salsabench -experiment
// fig4a`).
func BenchmarkFig04CounterScaling(b *testing.B) {
	for _, s := range []uint{1, 2, 4, 8, 16} {
		s := s
		b.Run(map[uint]string{1: "SALSA1", 2: "SALSA2", 4: "SALSA4", 8: "SALSA8", 16: "SALSA16"}[s], func(b *testing.B) {
			sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(s, core.MaxMerge, false), 1)
			benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
		})
	}
	b.Run("Baseline32", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
}

// BenchmarkFig05MergePolicy times sum- vs max-merge SALSA CMS (Fig. 5).
func BenchmarkFig05MergePolicy(b *testing.B) {
	for _, policy := range []core.MergePolicy{core.SumMerge, core.MaxMerge} {
		b.Run(map[core.MergePolicy]string{core.SumMerge: "Sum", core.MaxMerge: "Max"}[policy], func(b *testing.B) {
			sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, policy, false), 1)
			benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
		})
	}
}

// BenchmarkFig06SmallCounters times the fixed small-counter baselines of
// Fig. 6 (their error failure is the figure's point; speed here).
func BenchmarkFig06SmallCounters(b *testing.B) {
	for _, bits := range []uint{8, 16, 32} {
		bits := bits
		b.Run(map[uint]string{8: "CMS8", 16: "CMS16", 32: "CMS32"}[bits], func(b *testing.B) {
			sk := sketch.NewCMS(4, 1<<13, sketch.FixedRow(bits), 1)
			benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
		})
	}
}

// BenchmarkFig07Tango times Tango vs SALSA updates (Fig. 7's trade-off:
// Tango is finer-grained but pays for run-scanning its merge bits).
func BenchmarkFig07Tango(b *testing.B) {
	b.Run("Tango8", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.TangoRow(8, core.MaxMerge), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("SALSA8", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
}

// BenchmarkFig08Competitors is the paper's headline speed comparison
// (Fig. 8a,b): Baseline vs SALSA (~20% slower) vs Pyramid vs ABC (~75%
// slower).
func BenchmarkFig08Competitors(b *testing.B) {
	b.Run("Baseline", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("SALSA", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("Pyramid", func(b *testing.B) {
		sk := pyramid.New(4, 1<<13, 6, 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("ABC", func(b *testing.B) {
		sk := abc.New(4, 1<<14, 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
}

// BenchmarkFig09Query times point queries of the four Fig. 9 algorithms
// (the error scatter itself comes from `salsabench -experiment fig9`).
func BenchmarkFig09Query(b *testing.B) {
	b.Run("Baseline", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("SALSA", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("Pyramid", func(b *testing.B) {
		sk := pyramid.New(4, 1<<13, 6, 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
	b.Run("ABC", func(b *testing.B) {
		sk := abc.New(4, 1<<14, 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
}

// BenchmarkFig10L1Sketches covers the CMS/CUS speed panels (Fig. 10e–h).
func BenchmarkFig10L1Sketches(b *testing.B) {
	b.Run("BaselineCMS", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("SALSACMS", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("BaselineCUS", func(b *testing.B) {
		sk := sketch.NewCUS(4, 1<<12, sketch.FixedRow(32), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("SALSACUS", func(b *testing.B) {
		sk := sketch.NewCUS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
}

// BenchmarkFig11CountSketch covers the CS configurations of Fig. 11.
func BenchmarkFig11CountSketch(b *testing.B) {
	b.Run("Baseline", func(b *testing.B) {
		sk := sketch.NewCountSketch(5, 1<<12, sketch.FixedSignRow(32), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("SALSA", func(b *testing.B) {
		sk := sketch.NewCountSketch(5, 1<<14, sketch.SalsaSignRow(8, false), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
}

// BenchmarkFig12UnivMon covers the universal sketch of Fig. 12.
func BenchmarkFig12UnivMon(b *testing.B) {
	for _, c := range []struct {
		name string
		rows sketch.SignedRowSpec
	}{
		{"Baseline", sketch.FixedSignRow(32)},
		{"SALSA8", sketch.SalsaSignRow(8, false)},
	} {
		b.Run(c.name, func(b *testing.B) {
			um := univmon.New(univmon.Config{Levels: 16, Depth: 5, Width: 1 << 10, HeapK: 100, Rows: c.rows, Seed: 1})
			benchUpdates(b, um.Update)
		})
	}
}

// BenchmarkFig13ColdFilter covers the Cold Filter stages of Fig. 13.
func BenchmarkFig13ColdFilter(b *testing.B) {
	build := func(spec sketch.RowSpec, w int) *coldfilter.Filter {
		stage2 := sketch.NewCUS(4, w, spec, 1)
		return coldfilter.New(coldfilter.Config{W1: 1 << 14, W2: 1 << 13, D1: 3, D2: 3, Seed: 1}, stage2)
	}
	b.Run("BaselineStage2", func(b *testing.B) {
		f := build(sketch.FixedRow(32), 1<<11)
		benchUpdates(b, func(x uint64) { f.Update(x, 1) })
	})
	b.Run("SALSAStage2", func(b *testing.B) {
		f := build(sketch.SalsaRow(8, core.MaxMerge, false), 1<<13)
		benchUpdates(b, func(x uint64) { f.Update(x, 1) })
	})
}

// BenchmarkFig14Tasks covers the count-distinct and heavy-hitter query
// paths of Fig. 14.
func BenchmarkFig14Tasks(b *testing.B) {
	b.Run("DistinctLinearCounting", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.SumMerge, false), 1)
		for _, x := range benchStream()[:1<<16] {
			sk.Update(x, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = sk.DistinctLinearCounting()
		}
	})
	b.Run("HeavyHitterQuery", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchQueries(b, func(x uint64) { sk.Update(x, 1) }, func(x uint64) { sk.Query(x) })
	})
}

// BenchmarkFig15ChangeDetection times sketch subtraction (Fig. 15c,d).
func BenchmarkFig15ChangeDetection(b *testing.B) {
	data := benchStream()
	for _, c := range []struct {
		name string
		spec sketch.SignedRowSpec
	}{
		{"Baseline", sketch.FixedSignRow(32)},
		{"SALSA", sketch.SalsaSignRow(8, false)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sa := sketch.NewCountSketch(5, 1<<12, c.spec, 1)
				sb := sketch.NewCountSketch(5, 1<<12, c.spec, 1)
				for j, x := range data[:1<<16] {
					if j%2 == 0 {
						sa.Update(x, 1)
					} else {
						sb.Update(x, 1)
					}
				}
				b.StartTimer()
				sa.MergeFrom(sb, -1)
			}
		})
	}
}

// BenchmarkFig16Estimators is the AEE speed comparison (Fig. 16c,d): the
// sampling variants get faster as p drops because unsampled packets skip
// hashing entirely.
func BenchmarkFig16Estimators(b *testing.B) {
	b.Run("Baseline", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<12, sketch.FixedRow(32), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("AEEMaxAccuracy", func(b *testing.B) {
		e := aee.NewMaxAccuracy(aee.Config{Rows: 4, Width: 1 << 13, CounterBits: 16, Probabilistic: true, Seed: 1})
		benchUpdates(b, e.Update)
	})
	b.Run("AEEMaxSpeed", func(b *testing.B) {
		e := aee.NewMaxSpeed(aee.Config{Rows: 4, Width: 1 << 13, CounterBits: 16, Probabilistic: true, Seed: 1})
		benchUpdates(b, e.Update)
	})
	b.Run("SALSA", func(b *testing.B) {
		sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, false), 1)
		benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
	})
	b.Run("SALSAAEE", func(b *testing.B) {
		e := aee.NewSalsa(aee.SalsaConfig{Rows: 4, Width: 1 << 14, S: 8, Delta: 0.001, Seed: 1})
		benchUpdates(b, e.Update)
	})
	b.Run("SALSAAEE10", func(b *testing.B) {
		e := aee.NewSalsa(aee.SalsaConfig{Rows: 4, Width: 1 << 14, S: 8, Delta: 0.001, ForcedDownsamples: 10, Seed: 1})
		benchUpdates(b, e.Update)
	})
}

// BenchmarkFig17Splitting times downsampling with and without counter
// splitting (Fig. 17's ablation).
func BenchmarkFig17Splitting(b *testing.B) {
	for _, split := range []bool{true, false} {
		b.Run(map[bool]string{true: "Split", false: "NoSplit"}[split], func(b *testing.B) {
			arr := core.NewSalsa(1<<14, 8, core.MaxMerge, false)
			data := benchStream()
			for _, x := range data[:1<<16] {
				arr.Add(int(x)&(1<<14-1), 7)
			}
			rng := uint64(1)
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arr.Halve(true, next, split)
			}
		})
	}
}

// BenchmarkAblationEncoding compares the simple one-bit encoding with the
// Appendix A compact encoding (same semantics, 1 vs 0.594 bits/counter).
func BenchmarkAblationEncoding(b *testing.B) {
	for _, compact := range []bool{false, true} {
		b.Run(map[bool]string{false: "Simple", true: "Compact"}[compact], func(b *testing.B) {
			sk := sketch.NewCMS(4, 1<<14, sketch.SalsaRow(8, core.MaxMerge, compact), 1)
			benchUpdates(b, func(x uint64) { sk.Update(x, 1) })
		})
	}
}

// BenchmarkAblationRowOps isolates the per-row counter operations.
func BenchmarkAblationRowOps(b *testing.B) {
	b.Run("SalsaAdd", func(b *testing.B) {
		arr := core.NewSalsa(1<<14, 8, core.MaxMerge, false)
		mask := 1<<14 - 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr.Add(i&mask, 1)
		}
	})
	b.Run("FixedAdd", func(b *testing.B) {
		arr := core.NewFixed(1<<14, 32)
		mask := 1<<14 - 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr.Add(i&mask, 1)
		}
	})
	b.Run("TangoAdd", func(b *testing.B) {
		arr := core.NewTango(1<<14, 8, core.MaxMerge)
		mask := 1<<14 - 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr.Add(i&mask, 1)
		}
	})
	b.Run("SalsaSignAdd", func(b *testing.B) {
		arr := core.NewSalsaSign(1<<14, 8, false)
		mask := 1<<14 - 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr.Add(i&mask, int64(1-2*(i>>14&1)))
		}
	})
	b.Run("SalsaValue", func(b *testing.B) {
		arr := core.NewSalsa(1<<14, 8, core.MaxMerge, false)
		for i := 0; i < 1<<16; i++ {
			arr.Add(i&(1<<14-1), 3)
		}
		mask := 1<<14 - 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arr.Value(i & mask)
		}
	})
}

// --- concurrent ingestion layer (concurrent.go) -----------------------------
//
// ns/op in all Sharded benches is per ITEM, so the single-item, batch and
// buffered paths compare directly. The acceptance target for the concurrency
// milestone: IncrementBatch at 8 shards must deliver ≥2x the throughput of
// the single-item single-thread path.

// benchShardedBackends is the backend matrix of the Sharded benches: both
// CountMin counter modes plus the Conservative Update rule (whose batch
// path halves the hashing — the sequential rule hashes every row twice per
// item). Configurations are iso-memory: the 2^14-slot budget is split
// across shards (SALSA's premise is a fixed memory budget, and a sharded
// sketch at 8x the footprint would win on cache residency alone).
var benchShardedBackends = []struct {
	name  string
	build func(shards int) *ShardedCountMin
}{
	{"salsa", func(shards int) *ShardedCountMin {
		return MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 14 / shards, Seed: 1}), shards)).(*ShardedCountMin)
	}},
	{"baseline", func(shards int) *ShardedCountMin {
		return MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 14 / shards, Mode: ModeBaseline, Seed: 1}), shards)).(*ShardedCountMin)
	}},
	{"conservative", func(shards int) *ShardedCountMin {
		return MustBuild(ShardedBy(ConservativeOf(Options{Width: 1 << 14 / shards, Seed: 1}), shards)).(*ShardedCountMin)
	}},
}

// BenchmarkShardedIncrement times the per-item locked path — the baseline
// the batch APIs must beat (one route hash plus one lock round-trip per
// item).
func BenchmarkShardedIncrement(b *testing.B) {
	for _, shards := range []int{1, 8} {
		for _, backend := range benchShardedBackends {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, backend.name), func(b *testing.B) {
				s := backend.build(shards)
				benchUpdates(b, s.Increment)
			})
		}
	}
}

// BenchmarkShardedIncrementBatch times batch ingestion through the sharded
// layer: partition once, lock each shard once per batch, hash row-at-a-time.
func BenchmarkShardedIncrementBatch(b *testing.B) {
	const batch = 4096
	data := benchStream()
	for _, shards := range []int{1, 8} {
		for _, backend := range benchShardedBackends {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, backend.name), func(b *testing.B) {
				s := backend.build(shards)
				b.ReportAllocs()
				b.ResetTimer()
				off := 0
				for done := 0; done < b.N; done += batch {
					n := min(batch, b.N-done)
					s.IncrementBatch(data[off : off+n])
					if off += batch; off+batch > len(data) {
						off = 0
					}
				}
			})
		}
	}
}

// BenchmarkShardedParallel drives the 8-shard sketch from GOMAXPROCS
// goroutines — per-item locking vs per-goroutine Writer buffers vs whole
// batches — to expose lock traffic under real contention. On multi-core
// hardware the batch and Writer paths additionally scale with cores; the
// per-item path is the one that shouldn't.
func BenchmarkShardedParallel(b *testing.B) {
	const batch = 4096
	data := benchStream()
	b.Run("Increment", func(b *testing.B) {
		s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 14, Seed: 1}), 8)).(*ShardedCountMin)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s.Increment(data[i&(len(data)-1)])
				i++
			}
		})
	})
	b.Run("Writer", func(b *testing.B) {
		s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 14, Seed: 1}), 8)).(*ShardedCountMin)
		b.RunParallel(func(pb *testing.PB) {
			w := s.NewWriter(256)
			i := 0
			for pb.Next() {
				w.Increment(data[i&(len(data)-1)])
				i++
			}
			w.Flush()
		})
	})
	b.Run("IncrementBatch", func(b *testing.B) {
		s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 14, Seed: 1}), 8)).(*ShardedCountMin)
		var off atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]uint64, 0, batch)
			for pb.Next() {
				buf = append(buf, data[int(off.Add(1))&(len(data)-1)])
				if len(buf) == cap(buf) {
					s.IncrementBatch(buf)
					buf = buf[:0]
				}
			}
			s.IncrementBatch(buf)
		})
	})
}

// BenchmarkShardedQueryBatch times the read side of the concurrent layer.
func BenchmarkShardedQueryBatch(b *testing.B) {
	const batch = 4096
	s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 14, Seed: 1}), 8)).(*ShardedCountMin)
	data := benchStream()
	s.IncrementBatch(data)
	dst := make([]uint64, batch)
	b.ReportAllocs()
	b.ResetTimer()
	off := 0
	for done := 0; done < b.N; done += batch {
		n := min(batch, b.N-done)
		s.QueryBatch(data[off:off+n], dst[:0])
		if off += batch; off+batch > len(data) {
			off = 0
		}
	}
}

// --- sliding-window layer (window.go) ---------------------------------------

// BenchmarkWindowedIngest times windowed ingestion including rotation
// amortization (per-item and batch paths); ns/op is per item. The
// rotation interval is sized so every run crosses many bucket boundaries.
func BenchmarkWindowedIngest(b *testing.B) {
	const batch = 4096
	data := benchStream()
	b.Run("Increment", func(b *testing.B) {
		w := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 12, Seed: 1}), 8, 1<<15)).(*WindowedCountMin)
		benchUpdates(b, w.Increment)
	})
	b.Run("IncrementBatch", func(b *testing.B) {
		w := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 12, Seed: 1}), 8, 1<<15)).(*WindowedCountMin)
		b.ReportAllocs()
		b.ResetTimer()
		off := 0
		for done := 0; done < b.N; done += batch {
			n := min(batch, b.N-done)
			w.IncrementBatch(data[off : off+n])
			if off += batch; off+batch > len(data) {
				off = 0
			}
		}
	})
}

// BenchmarkWindowedRotate isolates one rotation: Reset of the retired
// bucket plus the (B−1)-merge rebuild of the closed-bucket view.
func BenchmarkWindowedRotate(b *testing.B) {
	for _, buckets := range []int{4, 8} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			w := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 12, Seed: 1}), buckets, 0)).(*WindowedCountMin)
			w.IncrementBatch(benchStream()[:1<<17])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Tick()
			}
		})
	}
}

// BenchmarkWindowedQuery times windowed point queries: the first query
// after a write rebuilds the view (2 merges), the rest hit the cached
// merge. Both regimes are timed.
func BenchmarkWindowedQuery(b *testing.B) {
	build := func() *WindowedCountMin {
		w := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 12, Seed: 1}), 8, 1<<15)).(*WindowedCountMin)
		w.IncrementBatch(benchStream()[:1<<17])
		return w
	}
	b.Run("Cached", func(b *testing.B) {
		w := build()
		benchQueries(b, func(uint64) {}, func(x uint64) { w.Query(x) })
	})
	b.Run("AfterWrite", func(b *testing.B) {
		w := build()
		data := benchStream()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Increment(data[i&(len(data)-1)])
			w.Query(data[i&(len(data)-1)])
		}
	})
}

// BenchmarkPublicAPI times the facade overhead end to end.
func BenchmarkPublicAPI(b *testing.B) {
	b.Run("CountMinIncrement", func(b *testing.B) {
		cm := MustBuild(CountMinOf(Options{Width: 1 << 14, Seed: 1})).(*CountMin)
		benchUpdates(b, cm.Increment)
	})
	b.Run("CountSketchIncrement", func(b *testing.B) {
		cs := MustBuild(CountSketchOf(Options{Width: 1 << 14, Seed: 1})).(*CountSketch)
		benchUpdates(b, cs.Increment)
	})
	b.Run("MonitorProcess", func(b *testing.B) {
		m := MustBuild(MonitorOf(Options{Width: 1 << 14, Seed: 1}, 100)).(*Monitor)
		benchUpdates(b, m.Process)
	})
}

// BenchmarkMonitorProcess times the heavy-hitter Monitor at the salsad
// agent's shape (w=2^10, k=64): one conservative update plus the top-k heap
// refresh per item, on a skewed trace (NY18) and a flatter one (Univ2).
func BenchmarkMonitorProcess(b *testing.B) {
	for _, d := range []stream.Dataset{stream.NY18, stream.Univ2} {
		b.Run(d.Name, func(b *testing.B) {
			data := d.Generate(1<<18, 99)
			mask := benchMask(b, data)
			m := MustBuild(MonitorOf(Options{Width: 1 << 10, Seed: 1}, 64)).(*Monitor)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Process(data[i&mask])
			}
		})
	}
}
