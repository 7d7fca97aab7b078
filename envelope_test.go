package salsa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"salsa/internal/stream"
)

// roundTripItems is a deterministic mixed-skew probe stream.
var roundTripItems = func() []uint64 {
	items := make([]uint64, 4000)
	x := uint64(0x243f6a8885a308d3)
	for i := range items {
		x = x*6364136223846793005 + 1442695040888963407
		items[i] = x >> 52 // ~4k distinct values, heavy collisions
	}
	return items
}()

// universalTopologies enumerates one representative spec per topology in
// the algebra, including mode/encoding variants of the leaves. Every entry
// must round-trip through Marshal/Unmarshal byte-identically.
func universalTopologies() []struct {
	name string
	spec Spec
} {
	opt := Options{Width: 256, Seed: 9}
	sum := Options{Width: 256, Merge: MergeSum, Seed: 9}
	return []struct {
		name string
		spec Spec
	}{
		{"countmin-salsa", CountMinOf(opt)},
		{"countmin-baseline", CountMinOf(Options{Width: 128, Mode: ModeBaseline, Seed: 9})},
		{"countmin-compact", CountMinOf(Options{Width: 256, CompactEncoding: true, Seed: 9})},
		{"countmin-sum", CountMinOf(sum)},
		{"conservative", ConservativeOf(opt)},
		{"countsketch-salsa", CountSketchOf(opt)},
		{"countsketch-baseline", CountSketchOf(Options{Width: 128, Mode: ModeBaseline, Seed: 9})},
		{"monitor", MonitorOf(opt, 8)},
		{"topk", TopKOf(opt, 8)},
		{"windowed-countmin", Windowed(CountMinOf(opt), 4, 700)},
		{"windowed-conservative", Windowed(ConservativeOf(opt), 3, 900)},
		{"windowed-countsketch", Windowed(CountSketchOf(opt), 4, 700)},
		{"windowed-monitor", Windowed(MonitorOf(opt, 6), 3, 900)},
		{"windowed-tick-driven", Windowed(CountMinOf(opt), 4, 0)},
		{"sharded-countmin", ShardedBy(CountMinOf(opt), 4)},
		{"sharded-conservative", ShardedBy(ConservativeOf(opt), 2)},
		{"sharded-countsketch", ShardedBy(CountSketchOf(opt), 4)},
		{"sharded-monitor", ShardedBy(MonitorOf(opt, 8), 2)},
		{"sharded-windowed-countmin", ShardedBy(Windowed(CountMinOf(opt), 3, 500), 4)},
		{"sharded-windowed-countsketch", ShardedBy(Windowed(CountSketchOf(opt), 3, 500), 4)},
		{"sharded-windowed-monitor", ShardedBy(Windowed(MonitorOf(opt, 6), 3, 500), 2)},
		{"univmon-salsa", UnivMonOf(opt, 8, 12)},
		{"univmon-baseline", UnivMonOf(Options{Width: 128, Mode: ModeBaseline, Seed: 9}, 6, 8)},
		{"aee-salsa", AEEOf(opt)},
		{"aee-baseline", AEEOf(Options{Width: 256, Mode: ModeBaseline, Seed: 9})},
		{"distinct", DistinctOf(Options{Width: 1 << 15, Seed: 9})},
		{"windowed-distinct", Windowed(DistinctOf(Options{Width: 1 << 15, Seed: 9}), 4, 700)},
		{"coldfilter-cms", Filtered(CountMinOf(opt))},
		{"coldfilter-cus", Filtered(ConservativeOf(opt))},
		{"coldfilter-tango", Filtered(ConservativeOf(Options{Width: 256, Mode: ModeTango, Seed: 9}))},
		{"pyramid", Tiered(CountMinOf(opt))},
		{"sharded-aee", ShardedBy(AEEOf(opt), 2)},
		{"sharded-distinct", ShardedBy(DistinctOf(Options{Width: 1 << 15, Seed: 9}), 2)},
		{"sharded-coldfilter", ShardedBy(Filtered(ConservativeOf(opt)), 2)},
		{"sharded-pyramid", ShardedBy(Tiered(CountMinOf(opt)), 2)},
		{"epoch-countmin", EpochShardedBy(CountMinOf(sum), 2)},
		{"epoch-conservative", EpochShardedBy(ConservativeOf(sum), 2)},
		{"epoch-countsketch", EpochShardedBy(CountSketchOf(sum), 2)},
		{"epoch-monitor", EpochShardedBy(MonitorOf(sum, 8), 2)},
		{"epoch-distinct", EpochShardedBy(DistinctOf(Options{Width: 1 << 15, Merge: MergeSum, Seed: 9}), 2)},
		{"epoch-windowed-countmin", EpochShardedBy(Windowed(CountMinOf(sum), 4, 0), 2)},
		{"epoch-windowed-countsketch", EpochShardedBy(Windowed(CountSketchOf(sum), 4, 0), 2)},
	}
}

// ingestRoundTrip streams enough items that count-rotated windows are
// mid-bucket with retired buckets behind them, then lands one explicit
// Tick on tickable topologies so the decoded ring must also resume from a
// just-rotated state in the tick-driven case.
func ingestRoundTrip(s Sketch, items []uint64) {
	s.UpdateBatch(items[:len(items)/2], 1)
	if tk, ok := s.(interface{ Tick() }); ok {
		tk.Tick()
	}
	s.UpdateBatch(items[len(items)/2:], 1)
}

// observe captures the query surface of any topology: per-item estimates
// (normalized to int64) plus the tracker candidate sets where present.
func observe(t *testing.T, s Sketch, items []uint64) []int64 {
	t.Helper()
	var out []int64
	q := func(item uint64) int64 {
		switch x := s.(type) {
		case *CountMin:
			return int64(x.Query(item))
		case *CountSketch:
			return x.Query(item)
		case *Monitor:
			return int64(x.Sketch().Query(item))
		case *TopK:
			return x.Sketch().Query(item)
		case *WindowedCountMin:
			return int64(x.Query(item))
		case *WindowedCountSketch:
			return x.Query(item)
		case *WindowedMonitor:
			return int64(x.Query(item))
		case *ShardedCountMin:
			return int64(x.Query(item))
		case *ShardedCountSketch:
			return x.Query(item)
		case *ShardedMonitor:
			return int64(x.Query(item))
		case *ShardedWindowedCountMin:
			return int64(x.Query(item))
		case *ShardedWindowedCountSketch:
			return x.Query(item)
		case *ShardedWindowedMonitor:
			return int64(x.Query(item))
		case *AEE:
			return int64(math.Float64bits(x.Query(item)))
		case *ShardedAEE:
			return int64(math.Float64bits(x.Query(item)))
		case *Distinct:
			return int64(x.Query(item))
		case *ShardedDistinct:
			return int64(x.Query(item))
		case *WindowedDistinct:
			return int64(x.Query(item))
		case *ColdFilter:
			return int64(x.Query(item))
		case *ShardedColdFilter:
			return int64(x.Query(item))
		case *Pyramid:
			return int64(x.Query(item))
		case *ShardedPyramid:
			return int64(x.Query(item))
		case *EpochCountMin:
			return int64(x.Query(item))
		case *EpochCountSketch:
			return x.Query(item)
		case *EpochMonitor:
			return int64(x.Query(item))
		case *EpochDistinct:
			return int64(x.Query(item))
		case *EpochWindowedCountMin:
			return int64(x.Query(item))
		case *EpochWindowedCountSketch:
			return x.Query(item)
		case *EpochWindowedDistinct:
			return int64(x.Query(item))
		}
		t.Fatalf("observe: unhandled topology %T", s)
		return 0
	}
	// UnivMon has no per-item query surface; its observable state is the
	// G-sum estimates plus the per-level heavy-hitter candidates.
	if um, ok := s.(*UnivMon); ok {
		for _, est := range []float64{um.Entropy(), um.Distinct(), um.Moment(2)} {
			out = append(out, int64(math.Float64bits(est)))
		}
		for _, e := range um.HeavyHitters() {
			out = append(out, int64(e.Item), e.Count)
		}
		return out
	}
	for _, x := range items[:256] {
		out = append(out, q(x))
	}
	// Estimate-style surfaces observed on top of the per-item queries; a
	// saturated Linear Counting row maps to a sentinel so both sides of an
	// equivalence check agree even out of the estimator's operating range.
	estimateBits := func(est float64, err error) int64 {
		if err != nil {
			return -1
		}
		return int64(math.Float64bits(est))
	}
	switch x := s.(type) {
	case *Distinct:
		out = append(out, estimateBits(x.Estimate()))
	case *WindowedDistinct:
		out = append(out, estimateBits(x.Estimate()))
	case *ShardedDistinct:
		out = append(out, estimateBits(x.Estimate()))
	case *AEE:
		out = append(out, int64(math.Float64bits(x.SampleProb())))
	case *ColdFilter:
		out = append(out, int64(x.Stage2Volume()))
	}
	type topper interface{ Top() []ItemCount }
	if tp, ok := s.(topper); ok {
		for _, e := range tp.Top() {
			out = append(out, int64(e.Item), e.Count)
		}
	}
	return out
}

func equalObservations(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestUniversalRoundTrip is the envelope's core contract: for every
// topology, Unmarshal(Marshal(x)) re-marshals byte-identically, answers
// identical queries, and keeps evolving identically to the original under
// further ingestion (proving the ring odometers, shard routing, and heaps
// were restored exactly, not just the counters).
func TestUniversalRoundTrip(t *testing.T) {
	for _, tc := range universalTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			s := MustBuild(tc.spec)
			ingestRoundTrip(s, roundTripItems)

			blob, err := Marshal(s)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			back, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if fmt.Sprintf("%T", back) != fmt.Sprintf("%T", s) {
				t.Fatalf("decoded type %T, want %T", back, s)
			}
			blob2, err := Marshal(back)
			if err != nil {
				t.Fatalf("re-Marshal: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("re-marshal differs: %d vs %d bytes", len(blob), len(blob2))
			}
			if !equalObservations(observe(t, s, roundTripItems), observe(t, back, roundTripItems)) {
				t.Fatal("decoded sketch answers differ")
			}

			// The decoded topology must keep evolving exactly like the
			// original: same rotations, same shard routing, same heap
			// displacement decisions.
			more := roundTripItems[:1500]
			s.UpdateBatch(more, 1)
			back.UpdateBatch(more, 1)
			if tk, ok := s.(interface{ Tick() }); ok {
				tk.Tick()
				back.(interface{ Tick() }).Tick()
				s.UpdateBatch(more, 1)
				back.UpdateBatch(more, 1)
			}
			if !equalObservations(observe(t, s, roundTripItems), observe(t, back, roundTripItems)) {
				t.Fatal("decoded sketch diverges under further ingestion")
			}
			b1, err := Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("original and decoded marshal differently after further ingestion")
			}
		})
	}
}

// TestBatchSequentialEquivalence pins the fast batch ingestion paths to
// the general single-update semantics: for every topology, a stream fed
// through UpdateBatch in uneven chunks must leave byte-identical marshal
// state to the same stream fed one Update at a time. This is what makes
// the word-parallel batch kernels and per-shard grouping safe — they may
// reorder work internally, but never observably.
func TestBatchSequentialEquivalence(t *testing.T) {
	for _, tc := range universalTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			single := MustBuild(tc.spec)
			batched := MustBuild(tc.spec)
			items := roundTripItems[:1500]
			for _, x := range items {
				single.Update(x, 1)
			}
			// Uneven chunk sizes cross every internal alignment boundary
			// of the word-parallel paths.
			for i, step := 0, 1; i < len(items); i, step = i+step, step*3+1 {
				end := i + step
				if end > len(items) {
					end = len(items)
				}
				batched.UpdateBatch(items[i:end], 1)
			}
			b1, err := Marshal(single)
			if err != nil {
				t.Fatalf("Marshal single: %v", err)
			}
			b2, err := Marshal(batched)
			if err != nil {
				t.Fatalf("Marshal batched: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("batch and sequential ingestion diverge: %d vs %d bytes", len(b1), len(b2))
			}
			if !equalObservations(observe(t, single, items), observe(t, batched, items)) {
				t.Fatal("batch and sequential ingestion answer differently")
			}
		})
	}
}

// TestUniversalLargeBMidRotationRoundTrip pins the rotation-stack restore
// contract at a ring size where the two-stack machinery matters: a B=64
// window serialized mid-bucket and mid-flip-cycle must decode to a ring
// whose rebuilt front/back aggregates continue bit-identically — same query
// view bytes, same marshal bytes — through several subsequent flip cycles.
func TestUniversalLargeBMidRotationRoundTrip(t *testing.T) {
	const (
		buckets  = 64
		interval = 100
	)
	data := stream.Zipf(buckets*interval*4, 900, 1.0, 131)
	for name, spec := range map[string]Spec{
		"cms": Windowed(CountMinOf(Options{Width: 1 << 9, Seed: 17}), buckets, interval),
		"cus": Windowed(ConservativeOf(Options{Width: 1 << 9, Seed: 17}), buckets, interval),
		"cs":  Windowed(CountSketchOf(Options{Width: 1 << 9, Seed: 17}), buckets, interval),
	} {
		t.Run(name, func(t *testing.T) {
			s := MustBuild(spec)
			// 70 rotations in (mid flip cycle: 70 ≡ 7 mod 63) plus half a
			// bucket, so both stacks and the current bucket are non-trivial.
			warm := 70*interval + interval/2
			s.UpdateBatch(data[:warm], 1)

			blob, err := Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}

			viewBlob := func(x Sketch) []byte {
				t.Helper()
				var blob []byte
				var err error
				switch w := x.(type) {
				case *WindowedCountMin:
					blob, err = w.ring.View().MarshalBinary()
				case *WindowedCountSketch:
					blob, err = w.ring.View().MarshalBinary()
				default:
					t.Fatalf("unexpected type %T", x)
				}
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			if !bytes.Equal(viewBlob(s), viewBlob(back)) {
				t.Fatal("decoded ring's rebuilt query view differs from the original's")
			}

			// Continue both through two more full flip cycles, comparing the
			// live view and the full envelope at rotation-aligned and
			// mid-bucket checkpoints.
			rest := data[warm : warm+2*(buckets-1)*interval+interval/2]
			for len(rest) > 0 {
				chunk := interval/2 + 17
				if chunk > len(rest) {
					chunk = len(rest)
				}
				s.UpdateBatch(rest[:chunk], 1)
				back.UpdateBatch(rest[:chunk], 1)
				rest = rest[chunk:]
				if !bytes.Equal(viewBlob(s), viewBlob(back)) {
					t.Fatal("views diverged under continued ingestion")
				}
			}
			b1, err := Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("envelopes diverged after continued ingestion")
			}
			wantRot := uint64((warm + 2*(buckets-1)*interval + interval/2) / interval)
			rotOf := func(x Sketch) uint64 {
				switch w := x.(type) {
				case *WindowedCountMin:
					return w.Rotations()
				case *WindowedCountSketch:
					return w.Rotations()
				}
				return 0
			}
			if rotOf(s) != wantRot || rotOf(back) != wantRot {
				t.Fatalf("rotations %d/%d, want %d", rotOf(s), rotOf(back), wantRot)
			}
		})
	}
}

// TestUniversalMergeAcrossProcesses is the distributed scenario at full
// generality: a decoded sketch merges with a seed-sharing peer it never
// met, matching the all-local merge bit for bit.
func TestUniversalMergeAcrossProcesses(t *testing.T) {
	opt := Options{Width: 512, Merge: MergeSum, Seed: 21}
	a := MustBuild(CountMinOf(opt)).(*CountMin)
	b := MustBuild(CountMinOf(opt)).(*CountMin)
	a.UpdateBatch(roundTripItems[:2000], 1)
	b.UpdateBatch(roundTripItems[2000:], 1)

	blob, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	merged := remote.(*CountMin)
	merged.Merge(b)

	local := MustBuild(CountMinOf(opt)).(*CountMin)
	local.UpdateBatch(roundTripItems, 1)
	lb, err := local.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, mb) {
		t.Fatal("decoded+merged sketch differs from the all-local union")
	}
}

// TestUniversalShardedSnapshotUnderIngestion: Marshal on a sharded
// topology under concurrent writers must produce a decodable, internally
// consistent payload (all shard locks are held for the snapshot).
func TestUniversalShardedSnapshotUnderIngestion(t *testing.T) {
	s := MustBuild(ShardedBy(Windowed(CountMinOf(Options{Width: 256, Seed: 4}), 3, 400), 4)).(*ShardedWindowedCountMin)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					s.Update(uint64(g*1000+i%500), 1)
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		blob, err := Marshal(s)
		if err != nil {
			t.Errorf("Marshal under ingestion: %v", err)
			break
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Errorf("snapshot does not decode: %v", err)
			break
		}
		if blob2, err := Marshal(back); err != nil || !bytes.Equal(blob, blob2) {
			t.Errorf("snapshot not byte-stable (err=%v)", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestUniversalRejectsGarbage covers the envelope's hostile-byte edges the
// fuzz target then explores at depth.
func TestUniversalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("accepted nil")
	}
	if _, err := Unmarshal([]byte("definitely not a sketch")); err == nil {
		t.Fatal("accepted garbage")
	}
	blob, err := Marshal(MustBuild(CountMinOf(Options{Width: 64, Seed: 1})))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong version.
	bad := append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted unknown version")
	}
	// Unknown tag.
	bad = append([]byte(nil), blob...)
	bad[5] = 200
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted unknown tag")
	}
	// The old per-type format is not an envelope.
	cm := MustBuild(CountMinOf(Options{Width: 64, Seed: 1})).(*CountMin)
	old, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(old); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("per-type payload: got %v, want ErrBadPayload", err)
	}
	// Tango serializes since the reference arena grew a codec; the envelope
	// must round-trip it byte-identically like every other mode.
	tango := MustBuild(CountMinOf(Options{Width: 64, Mode: ModeTango, Seed: 1}))
	ingestRoundTrip(tango, roundTripItems)
	blob, err = Marshal(tango)
	if err != nil {
		t.Fatalf("tango marshal: %v", err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatalf("tango unmarshal: %v", err)
	}
	blob2, err := Marshal(back)
	if err != nil {
		t.Fatalf("tango re-marshal: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("tango envelope round-trip is not byte-identical")
	}
}

// callerSketch is a Sketch defined outside the package's type set.
type callerSketch struct{ n int64 }

func (c *callerSketch) Update(_ uint64, count int64) { c.n += count }
func (c *callerSketch) UpdateBatch(items []uint64, count int64) {
	c.n += int64(len(items)) * count
}
func (c *callerSketch) MemoryBits() int { return 64 }

// TestMarshalUnsupportedTopology: Marshal rejects every topology the
// envelope cannot rebuild with an error wrapping ErrUnsupportedTopology,
// including Sharded layers over backends the Spec algebra never shards —
// even when the backend alone would marshal.
func TestMarshalUnsupportedTopology(t *testing.T) {
	opt := Options{Width: 64, Seed: 1}
	for name, s := range map[string]Sketch{
		"caller sketch": &callerSketch{},
		"sharded topk": NewSharded(2, 1, func(int) *TopK {
			return MustBuild(TopKOf(opt, 4)).(*TopK)
		}),
		"sharded univmon": NewSharded(2, 1, func(int) *UnivMon {
			return MustBuild(UnivMonOf(opt, 4, 8)).(*UnivMon)
		}),
		"sharded caller sketch": NewSharded(2, 1, func(int) *callerSketch { return &callerSketch{} }),
		"nested sharded": NewSharded(2, 1, func(int) *ShardedCountMin {
			return MustBuild(ShardedBy(CountMinOf(opt), 2)).(*ShardedCountMin)
		}),
	} {
		if _, err := Marshal(s); !errors.Is(err, ErrUnsupportedTopology) {
			t.Errorf("%s: Marshal error %v, want ErrUnsupportedTopology", name, err)
		}
	}
}

// TestUniversalRejectsHugeDeclaredGeometry: a tiny windowed payload whose
// Options header declares an enormous (but power-of-two, so
// Validate-passing) Width must be rejected before the decoder builds the
// reference sketch — previously this was an unrecoverable OOM, not an
// error.
func TestUniversalRejectsHugeDeclaredGeometry(t *testing.T) {
	w := MustBuild(Windowed(CountMinOf(Options{Width: 64, Seed: 1}), 2, 10)).(*WindowedCountMin)
	w.Increment(1)
	blob, err := Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	// The windowed payload starts with the Options header right after the
	// 6-byte envelope header: magic u32, then 7 u64 fields with Width at
	// index 1.
	bad := append([]byte(nil), blob...)
	widthOff := 6 + 4 + 8
	for i := 0; i < 8; i++ {
		bad[widthOff+i] = 0
	}
	bad[widthOff+5] = 1 // Width = 1<<40
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted a payload declaring a 2^40-slot ring")
	}
	// Width = 1<<62 makes Depth*Width wrap to 0 in a naive int product,
	// which used to slip past the allocation bound and panic in makeslice.
	for i := 0; i < 8; i++ {
		bad[widthOff+i] = 0
	}
	bad[widthOff+7] = 0x40 // Width = 1<<62
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted a payload declaring a 2^62-slot ring")
	}
}

// TestUniversalRejectsOverfullBucketCounts: with auto-rotation, the ring
// rotates the instant the current bucket's count reaches the interval, so
// a payload claiming counts[cur] >= interval (or any bucket above it) is
// non-canonical and would make Ring.Room underflow, breaking the
// batch/per-item ingestion equivalence.
func TestUniversalRejectsOverfullBucketCounts(t *testing.T) {
	w := MustBuild(Windowed(CountMinOf(Options{Width: 64, Seed: 1}), 2, 10)).(*WindowedCountMin)
	for i := 0; i < 13; i++ { // one rotation: counts = [10, 3], cur = 1
		w.Increment(uint64(i))
	}
	blob, err := Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	// Closed bucket pinned at exactly the interval is canonical.
	if _, err := Unmarshal(blob); err != nil {
		t.Fatalf("rejected canonical mid-rotation payload: %v", err)
	}
	// Ring header after the 6-byte envelope header and 60-byte Options
	// header: conservative byte, then buckets/interval/cur/rotations u64s,
	// then one count u64 per bucket.
	countsOff := 6 + 60 + 1 + 4*8
	bad := append([]byte(nil), blob...)
	bad[countsOff+8] = 10 // counts[cur=1] = interval
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted counts[cur] == interval")
	}
	bad = append([]byte(nil), blob...)
	bad[countsOff] = 11 // closed bucket above the interval
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted a closed bucket count above the interval")
	}
}

// TestUniversalRejectsHostileRingOptions: declared ring Options that core
// row constructors would panic on must be rejected as errors before the
// decoder builds the reference sketch.
func TestUniversalRejectsHostileRingOptions(t *testing.T) {
	w := MustBuild(Windowed(CountMinOf(Options{Width: 64, Seed: 1}), 2, 10))
	w.Update(1, 1)
	blob, err := Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	// The Options header follows the 6-byte envelope header: magic u32,
	// then u64 fields Depth, Width, Mode, CounterBits, ...
	tamper := func(field int, v byte) []byte {
		bad := append([]byte(nil), blob...)
		off := 6 + 4 + 8*field
		for i := 0; i < 8; i++ {
			bad[off+i] = 0
		}
		bad[off] = v
		return bad
	}
	// CounterBits = 3 used to reach the core row constructors and panic
	// with 'invalid SALSA base counter size'.
	if _, err := Unmarshal(tamper(3, 3)); err == nil {
		t.Fatal("accepted 3-bit counters")
	}
	// Flipping the declared mode to Tango makes the reference arena a Tango
	// ring while the bucket payloads stay SALSA; the compatibility check
	// must reject the mix before any merge runs.
	if _, err := Unmarshal(tamper(2, byte(ModeTango))); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("Tango ring header over SALSA buckets: got %v, want a bucket mismatch error", err)
	}
}

// TestUniversalRejectsMixedShardHeapCapacities: the Spec algebra gives
// every shard of a ShardedMonitor the same k, so a payload mixing heap
// capacities is unexpressable and must be refused — accepting it would
// silently truncate the cross-shard candidate set to shard 0's k.
func TestUniversalRejectsMixedShardHeapCapacities(t *testing.T) {
	s := MustBuild(ShardedBy(MonitorOf(Options{Width: 64, Seed: 1}, 4), 2))
	s.Update(7, 3) // one shard's heap holds one entry, the other's none
	blob, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0's nested envelope starts after the outer 6-byte header, the
	// routing seed, the shard count, and its own block length; its k is the
	// u64 right after the nested 6-byte header.
	bad := append([]byte(nil), blob...)
	kOff := 6 + 8 + 8 + 8 + 6
	if got := binary.LittleEndian.Uint64(bad[kOff:]); got != 4 {
		t.Fatalf("shard 0 k at offset %d = %d, want 4", kOff, got)
	}
	bad[kOff] = 2 // shard 0 k = 2, shard 1 still 4
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted mixed per-shard heap capacities")
	}
}

// TestUniversalRejectsHugeHeapCapacity: the declared tracker capacity is
// converted to int before topk.Restore, so it must be bounded by what int
// holds on every platform; 1<<32 used to pass the bound and wrap negative
// on 32-bit.
func TestUniversalRejectsHugeHeapCapacity(t *testing.T) {
	m := MustBuild(MonitorOf(Options{Width: 64, Seed: 1}, 4))
	m.Update(7, 3)
	blob, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// k is the u64 immediately after the 6-byte envelope header.
	bad := append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		bad[6+i] = 0
	}
	bad[6+4] = 1 // k = 1<<32
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("accepted a 2^32 heap capacity")
	}
}

// TestUniversalRejectsTruncationAndTrailing: every strict prefix of every
// topology's canonical payload must error, and trailing garbage must not
// be silently ignored.
func TestUniversalRejectsTruncationAndTrailing(t *testing.T) {
	for _, tc := range universalTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			s := MustBuild(tc.spec)
			ingestRoundTrip(s, roundTripItems[:1200])
			blob, err := Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			step := 1
			if len(blob) > 4096 {
				step = len(blob) / 4096
			}
			for i := 0; i < len(blob); i += step {
				if _, err := Unmarshal(blob[:i]); err == nil {
					t.Fatalf("accepted truncation to %d of %d bytes", i, len(blob))
				}
			}
			if _, err := Unmarshal(append(append([]byte(nil), blob...), 0xEE)); err == nil {
				t.Fatal("accepted trailing garbage")
			}
		})
	}
}
