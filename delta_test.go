package salsa

import (
	"bytes"
	"errors"
	"testing"

	"salsa/internal/core"
	"salsa/internal/stream"
)

// deltaBackends enumerates the sum-merge backends the delta-shipping
// protocol supports. wantBytes records whether shadow/delta round trips
// are expected to be marshal-byte-identical; the SalsaSign mixed-sign
// merge relaxation (counter grouping may differ between a delta-built and
// a directly-built sketch; values and mass are equivalent) exempts the
// SALSA CountSketch from byte identity under subtraction.
var deltaBackends = []struct {
	name      string
	spec      func(opt Options) Spec
	opt       Options
	wantBytes bool
}{
	{"cms-fixed", CountMinOf, Options{Width: 1 << 10, Mode: ModeBaseline, Merge: MergeSum, Seed: 7}, true},
	{"cms-salsa", CountMinOf, Options{Width: 1 << 10, Merge: MergeSum, Seed: 7}, true},
	{"cus-fixed", ConservativeOf, Options{Width: 1 << 10, Mode: ModeBaseline, Merge: MergeSum, Seed: 7}, true},
	{"cus-salsa", ConservativeOf, Options{Width: 1 << 10, Merge: MergeSum, Seed: 7}, true},
	{"cs-fixed", CountSketchOf, Options{Width: 1 << 10, Mode: ModeBaseline, Seed: 7}, true},
	{"cs-salsa", CountSketchOf, Options{Width: 1 << 10, Seed: 7}, false},
}

func mustMarshal(t *testing.T, s Sketch) []byte {
	t.Helper()
	blob, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func queryAny(t *testing.T, s Sketch, item uint64) int64 {
	t.Helper()
	switch v := s.(type) {
	case *CountMin:
		return int64(v.Query(item))
	case *CountSketch:
		return v.Query(item)
	default:
		t.Fatalf("queryAny: unsupported %T", s)
		return 0
	}
}

// TestDeltaReplaceEquivalence is the subtract-correctness spine of the
// delta protocol: an aggregator that applies successive deltas
// (currentᵢ − currentᵢ₋₁, computed by SubtractFrom) must end up exactly
// where replacing its copy with the full state would — byte-identically
// for the backends without a documented encoding relaxation, and
// query-identically for all of them — at every cut, with the live sketch
// continuing to ingest between cuts.
func TestDeltaReplaceEquivalence(t *testing.T) {
	for _, b := range deltaBackends {
		t.Run(b.name, func(t *testing.T) {
			live, err := Build(b.spec(b.opt))
			if err != nil {
				t.Fatal(err)
			}
			trace := stream.Zipf(12_000, 1<<14, 1.1, 42)

			var shadow, applied Sketch // agent shadow, aggregator accumulation
			for cut := 0; cut < 6; cut++ {
				for _, x := range trace[cut*2000 : (cut+1)*2000] {
					live.Update(x, 1)
				}
				blob := mustMarshal(t, live)
				cur, err := Unmarshal(blob)
				if err != nil {
					t.Fatal(err)
				}
				delta, err := Unmarshal(blob)
				if err != nil {
					t.Fatal(err)
				}
				if shadow != nil {
					if err := SubtractInto(delta, shadow); err != nil {
						t.Fatalf("cut %d: subtract: %v", cut, err)
					}
				}
				if applied == nil {
					applied = delta
				} else if err := MergeInto(applied, delta); err != nil {
					t.Fatalf("cut %d: merge: %v", cut, err)
				}
				shadow = cur

				if b.wantBytes {
					if got := mustMarshal(t, applied); !bytes.Equal(got, blob) {
						t.Fatalf("cut %d: delta-applied bytes diverge from full state (%d vs %d bytes)",
							cut, len(got), len(blob))
					}
				}
				for _, x := range trace[:64] {
					if got, want := queryAny(t, applied, x), queryAny(t, live, x); got != want {
						t.Fatalf("cut %d: item %d: delta-applied estimate %d != live %d", cut, x, got, want)
					}
				}
			}
		})
	}
}

// TestDeltaOfDeltasCoalesce pins the algebra that lets an agent buffer an
// arbitrarily long outage in one envelope: deltas taken against
// intermediate cuts merge into the delta against the original shadow,
// (c₁−s) ⊎ (c₂−c₁) = c₂−s.
func TestDeltaOfDeltasCoalesce(t *testing.T) {
	for _, b := range deltaBackends {
		t.Run(b.name, func(t *testing.T) {
			live := MustBuild(b.spec(b.opt))
			trace := stream.Zipf(9000, 1<<13, 1.05, 99)

			snap := func() (Sketch, []byte) {
				blob := mustMarshal(t, live)
				s, err := Unmarshal(blob)
				if err != nil {
					t.Fatal(err)
				}
				return s, blob
			}
			for _, x := range trace[:3000] {
				live.Update(x, 1)
			}
			s0, _ := snap()
			for _, x := range trace[3000:6000] {
				live.Update(x, 1)
			}
			c1, c1blob := snap()
			for _, x := range trace[6000:] {
				live.Update(x, 1)
			}
			c2, c2blob := snap()

			d1, _ := Unmarshal(mustMarshal(t, c1))
			if err := SubtractInto(d1, s0); err != nil {
				t.Fatal(err)
			}
			d2, err := Unmarshal(c2blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := SubtractInto(d2, c1); err != nil {
				t.Fatal(err)
			}
			if err := MergeInto(d1, d2); err != nil {
				t.Fatal(err)
			}
			want, err := Unmarshal(c2blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := SubtractInto(want, s0); err != nil {
				t.Fatal(err)
			}
			if b.wantBytes {
				if !bytes.Equal(mustMarshal(t, d1), mustMarshal(t, want)) {
					t.Fatal("coalesced delta-of-deltas diverges from direct delta")
				}
			}
			// Applying either to the shadow must restore the final state.
			back, _ := Unmarshal(mustMarshal(t, s0))
			if err := MergeInto(back, d1); err != nil {
				t.Fatal(err)
			}
			if b.wantBytes {
				if !bytes.Equal(mustMarshal(t, back), c2blob) {
					t.Fatal("shadow + coalesced delta diverges from full state")
				}
			}
			for _, x := range trace[:64] {
				if got, want := queryAny(t, back, x), queryAny(t, c2, x); got != want {
					t.Fatalf("item %d: %d != %d", x, got, want)
				}
			}
			_ = c1blob
		})
	}
}

// TestDeltaEpochUnwrap runs the shadow/delta cycle through the epoch
// ingest layer: DeltaCore must expose the drained view, and deltas cut
// between Advance calls must replay byte-identically.
func TestDeltaEpochUnwrap(t *testing.T) {
	opt := Options{Width: 1 << 10, Merge: MergeSum, Seed: 3}
	live := MustBuild(EpochShardedBy(CountMinOf(opt), 2))
	ep := live.(*EpochCountMin)
	w := ep.NewWriter(0)
	trace := stream.Zipf(8000, 1<<13, 1.2, 5)

	ref := MustBuild(CountMinOf(opt)).(*CountMin)
	var shadow, applied Sketch
	for cut := 0; cut < 4; cut++ {
		for _, x := range trace[cut*2000 : (cut+1)*2000] {
			w.Increment(x)
			ref.Increment(x)
		}
		w.Flush()
		ep.Advance()
		core, err := DeltaCore(live)
		if err != nil {
			t.Fatal(err)
		}
		blob := mustMarshal(t, core)
		cur, _ := Unmarshal(blob)
		delta, _ := Unmarshal(blob)
		if shadow != nil {
			if err := SubtractInto(delta, shadow); err != nil {
				t.Fatal(err)
			}
		}
		if applied == nil {
			applied = delta
		} else if err := MergeInto(applied, delta); err != nil {
			t.Fatal(err)
		}
		shadow = cur
		if got, want := mustMarshal(t, applied), mustMarshal(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: epoch delta accumulation diverges from sequential reference", cut)
		}
	}
}

// TestDeltaUnsupported pins the typed rejections: topologies without a
// counter-wise mergeable core, max-merge sketches without an inverse, and
// mid-rotation windows (whose counts shrink when buckets retire, so
// current − shadow is not monotone) must all fail with a *DeltaError —
// never panic, never silently corrupt.
func TestDeltaUnsupported(t *testing.T) {
	var de *DeltaError

	// A windowed sketch mid-rotation: rotation makes deltas non-monotone,
	// so the windowed topology has no delta core at all.
	w := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 8, Merge: MergeSum}), 4, 100))
	for i := 0; i < 250; i++ { // mid-rotation: 2 full buckets + half the third
		w.Update(uint64(i%17), 1)
	}
	if _, err := DeltaCore(w); !errors.As(err, &de) {
		t.Fatalf("DeltaCore(windowed mid-rotation) = %v, want *DeltaError", err)
	}
	if err := DeltaCapable(w); !errors.As(err, &de) {
		t.Fatalf("DeltaCapable(windowed) = %v, want *DeltaError", err)
	}

	// Max-merge CountMin has no inverse.
	mx := MustBuild(CountMinOf(Options{Width: 1 << 8, Merge: MergeMax}))
	if err := SubtractInto(mx, mx); !errors.As(err, &de) {
		t.Fatalf("SubtractInto(max-merge) = %v, want *DeltaError", err)
	}
	if err := DeltaCapable(mx); !errors.As(err, &de) {
		t.Fatalf("DeltaCapable(max-merge) = %v, want *DeltaError", err)
	}

	// Tango rows have no subtract kernel.
	tg := MustBuild(CountMinOf(Options{Width: 1 << 8, Mode: ModeTango, Merge: MergeSum}))
	if err := SubtractInto(tg, tg); !errors.As(err, &de) {
		t.Fatalf("SubtractInto(tango) = %v, want *DeltaError", err)
	}

	// Mismatched operand types and Options.
	a := MustBuild(CountMinOf(Options{Width: 1 << 8, Merge: MergeSum}))
	b := MustBuild(CountSketchOf(Options{Width: 1 << 8}))
	if err := MergeInto(a, b); !errors.As(err, &de) {
		t.Fatalf("MergeInto(cms, cs) = %v, want *DeltaError", err)
	}
	c := MustBuild(CountMinOf(Options{Width: 1 << 9, Merge: MergeSum}))
	if err := MergeInto(a, c); !errors.As(err, &de) {
		t.Fatalf("MergeInto(width mismatch) = %v, want *DeltaError", err)
	}
	d := MustBuild(CountMinOf(Options{Width: 1 << 8, Merge: MergeSum, Seed: 1}))
	if err := MergeInto(a, d); !errors.As(err, &de) {
		t.Fatalf("MergeInto(seed mismatch) = %v, want *DeltaError", err)
	}
	cus := MustBuild(ConservativeOf(Options{Width: 1 << 8, Merge: MergeSum}))
	if err := MergeInto(a, cus); !errors.As(err, &de) {
		t.Fatalf("MergeInto(cms, cus) = %v, want *DeltaError", err)
	}
}

// TestCloneSketchIndependent verifies the clone is a deep copy: mutating
// the original must not move the clone, and the clone's bytes match the
// original's at clone time.
func TestCloneSketchIndependent(t *testing.T) {
	orig := MustBuild(CountMinOf(Options{Width: 1 << 8, Merge: MergeSum})).(*CountMin)
	for i := 0; i < 500; i++ {
		orig.Increment(uint64(i % 37))
	}
	blob := mustMarshal(t, orig)
	cl, err := CloneSketch(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, cl), blob) {
		t.Fatal("clone bytes differ from original")
	}
	orig.Update(1, 1000)
	if bytes.Equal(mustMarshal(t, cl), mustMarshal(t, orig)) {
		t.Fatal("clone tracked the original after mutation")
	}
}

// copyBackends enumerates the sketches CopyInto covers: CountMin over
// SALSA rows in both merge encodings at several base sizes, baseline and
// Tango rows, conservative update, and Count Sketch over SALSA and
// baseline rows.
var copyBackends = []struct {
	name string
	spec Spec
}{
	{"cms-salsa4", CountMinOf(Options{Width: 1 << 10, CounterBits: 4, Merge: MergeSum, Seed: 3})},
	{"cms-salsa8", CountMinOf(Options{Width: 1 << 10, Merge: MergeSum, Seed: 3})},
	{"cms-salsa16-max", CountMinOf(Options{Width: 1 << 10, CounterBits: 16, Seed: 3})},
	{"cms-salsa4-compact", CountMinOf(Options{Width: 1 << 10, CounterBits: 4, CompactEncoding: true, Merge: MergeSum, Seed: 3})},
	{"cms-salsa8-compact", CountMinOf(Options{Width: 1 << 10, CompactEncoding: true, Seed: 3})},
	{"cms-salsa16-compact", CountMinOf(Options{Width: 1 << 10, CounterBits: 16, CompactEncoding: true, Merge: MergeSum, Seed: 3})},
	{"cms-fixed", CountMinOf(Options{Width: 1 << 10, Mode: ModeBaseline, CounterBits: 16, Seed: 3})},
	{"cms-tango", CountMinOf(Options{Width: 1 << 10, Mode: ModeTango, Seed: 3})},
	{"cus-salsa", ConservativeOf(Options{Width: 1 << 10, Seed: 3})},
	{"cs-salsa", CountSketchOf(Options{Width: 1 << 10, Seed: 3})},
	{"cs-fixed", CountSketchOf(Options{Width: 1 << 10, Mode: ModeBaseline, Seed: 3})},
}

// heavyStream returns n Zipf-like items over a small universe, offset so
// that two streams with different offsets grow (and merge) different
// counters.
func heavyStream(n int, offset uint64) []uint64 {
	items := stream.Univ2.Generate(n, offset)
	for i := range items {
		items[i] = items[i]%97 + offset<<32
	}
	return items
}

// mergedSlots counts, over the SALSA and Tango rows of a CountMin or
// CountSketch, the slots whose counter has merged in a but not in b.
func mergedSlots(a, b Sketch) int {
	merged := func(s Sketch, row, i int) bool {
		switch v := s.(type) {
		case *CountMin:
			switch r := v.sk.Rows()[row].(type) {
			case *core.Salsa:
				return r.Level(i) > 0
			case *core.Tango:
				lo, hi := r.Span(i)
				return hi > lo
			}
		case *CountSketch:
			if r, ok := v.sk.Rows()[row].(*core.SalsaSign); ok {
				return r.Level(i) > 0
			}
		}
		return false
	}
	n := 0
	depth, width := a.(interface{ Depth() int }).Depth(), a.(interface{ Width() int }).Width()
	for row := 0; row < depth; row++ {
		for i := 0; i < width; i++ {
			if merged(a, row, i) && !merged(b, row, i) {
				n++
			}
		}
	}
	return n
}

// TestCopyInto pins CopyInto's contract on every covered backend: src
// holds merged counters and dst holds different ones, some merged where
// src's are not; after the copy dst marshals to src's bytes, and it
// shares no storage with src.
func TestCopyInto(t *testing.T) {
	for _, bk := range copyBackends {
		t.Run(bk.name, func(t *testing.T) {
			src, dst := MustBuild(bk.spec), MustBuild(bk.spec)
			src.UpdateBatch(heavyStream(20_000, 1), 300)
			dst.UpdateBatch(heavyStream(30_000, 2), 300)
			want := mustMarshal(t, src)
			if bytes.Equal(mustMarshal(t, dst), want) {
				t.Fatal("dst already equals src")
			}
			if o := src.(interface{ Options() Options }).Options(); o.Mode != ModeBaseline &&
				(mergedSlots(src, dst) == 0 || mergedSlots(dst, src) == 0) {
				t.Fatalf("src and dst must each hold merges the other lacks: %d, %d",
					mergedSlots(src, dst), mergedSlots(dst, src))
			}
			if err := CopyInto(dst, src); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustMarshal(t, dst), want) {
				t.Fatal("Marshal(dst) differs from Marshal(src) after CopyInto")
			}
			src.UpdateBatch(heavyStream(20_000, 3), 1)
			if !bytes.Equal(mustMarshal(t, dst), want) {
				t.Fatal("updating src moved dst")
			}
			dst.UpdateBatch(heavyStream(1000, 4), 1)
			if bytes.Equal(mustMarshal(t, src), want) {
				t.Fatal("updating dst moved src")
			}
		})
	}
}

// TestCopyIntoEpochView copies an epoch layer's view: the copy equals
// the view's bytes, and the epoch layer may be passed as src directly.
func TestCopyIntoEpochView(t *testing.T) {
	opt := Options{Width: 1 << 10, Merge: MergeSum, Seed: 3}
	ep := MustBuild(EpochShardedBy(CountMinOf(opt), 2)).(*EpochCountMin)
	w := ep.NewWriter(0)
	for _, x := range heavyStream(10_000, 5) {
		w.Increment(x)
	}
	w.Flush()
	ep.Advance()
	dst := MustBuild(CountMinOf(opt))
	if err := CopyInto(dst, ep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, dst), mustMarshal(t, ep.View())) {
		t.Fatal("copy of the epoch view differs from the view")
	}
}

// TestCopyIntoRejects pins the typed rejections: every mismatch MergeInto
// rejects, plus destinations CopyInto does not cover, fail with a
// *DeltaError and leave dst byte for byte as it was. (A decoded sketch
// whose options header disagrees with its rows never gets this far:
// TestUnmarshalChecksOptionsHeader pins that the decoders reject it.)
func TestCopyIntoRejects(t *testing.T) {
	opt := Options{Width: 1 << 8, Merge: MergeSum, Seed: 3}
	with := func(f func(*Options)) Options { o := opt; f(&o); return o }
	cases := []struct {
		name     string
		dst, src Sketch
	}{
		{"type", MustBuild(CountMinOf(opt)), MustBuild(CountSketchOf(opt))},
		{"width", MustBuild(CountMinOf(opt)), MustBuild(CountMinOf(with(func(o *Options) { o.Width = 1 << 9 })))},
		{"counter bits", MustBuild(CountMinOf(opt)), MustBuild(CountMinOf(with(func(o *Options) { o.CounterBits = 16 })))},
		{"encoding", MustBuild(CountMinOf(opt)), MustBuild(CountMinOf(with(func(o *Options) { o.CompactEncoding = true })))},
		{"mode", MustBuild(CountMinOf(opt)), MustBuild(CountMinOf(with(func(o *Options) { o.Mode = ModeTango })))},
		{"seed", MustBuild(CountMinOf(opt)), MustBuild(CountMinOf(with(func(o *Options) { o.Seed = 4 })))},
		{"cs seed", MustBuild(CountSketchOf(opt)), MustBuild(CountSketchOf(with(func(o *Options) { o.Seed = 4 })))},
		{"conservative", MustBuild(CountMinOf(opt)), MustBuild(ConservativeOf(opt))},
		{"unsupported src", MustBuild(CountMinOf(opt)), MustBuild(MonitorOf(opt, 8))},
		{"unsupported dst", MustBuild(Windowed(CountMinOf(opt), 4, 100)), MustBuild(CountMinOf(opt))},
		{"epoch dst", MustBuild(EpochShardedBy(CountMinOf(opt), 2)), MustBuild(CountMinOf(opt))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.dst.UpdateBatch(heavyStream(2000, 6), 1)
			tc.src.UpdateBatch(heavyStream(2000, 7), 1)
			before := mustMarshal(t, tc.dst)
			var de *DeltaError
			if err := CopyInto(tc.dst, tc.src); !errors.As(err, &de) {
				t.Fatalf("CopyInto = %v, want *DeltaError", err)
			}
			if !bytes.Equal(mustMarshal(t, tc.dst), before) {
				t.Fatal("a rejected CopyInto changed dst")
			}
		})
	}
}
