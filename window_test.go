package salsa

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"salsa/internal/sketch"
	"salsa/internal/stream"
)

// --- slot-exact equality with a from-scratch merge of live buckets ---------

// fromScratchCMS rebuilds the window sketch the slow way: a fresh CMS that
// the live buckets are merged into in oldest-to-newest order. The windowed
// view must be bit-for-bit identical.
func fromScratchCMS(w *WindowedCountMin) *sketch.CMS {
	var fresh *sketch.CMS
	if w.conservative {
		fresh = sketch.NewCUS(w.opt.Depth, w.opt.Width, rowSpec(w.opt), w.opt.Seed)
	} else {
		fresh = sketch.NewCMS(w.opt.Depth, w.opt.Width, rowSpec(w.opt), w.opt.Seed)
	}
	w.ring.LiveBuckets(func(_ int, b *sketch.CMS) { fresh.MergeFrom(b) })
	return fresh
}

// TestWindowedQueryEqualsFromScratchMerge pins the incremental view
// contract for every CountMin backend mode: at many points along a Zipf
// stream — including mid-bucket and right after rotations — Query must
// equal querying a from-scratch merge of the live buckets. Where the
// backend serializes, the check is on marshal bytes, which pins counter
// values AND merge layouts slot-exactly.
func TestWindowedQueryEqualsFromScratchMerge(t *testing.T) {
	data := stream.Zipf(30000, 2000, 1.0, 77)
	const buckets, interval = 4, 2500
	builds := map[string]func() *WindowedCountMin{
		"SALSA": func() *WindowedCountMin {
			return MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, Seed: 9}), buckets, interval)).(*WindowedCountMin)
		},
		"Baseline": func() *WindowedCountMin {
			return MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, Mode: ModeBaseline, Seed: 9}), buckets, interval)).(*WindowedCountMin)
		},
		"Compact": func() *WindowedCountMin {
			return MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, CompactEncoding: true, Seed: 9}), buckets, interval)).(*WindowedCountMin)
		},
		"Tango": func() *WindowedCountMin {
			return MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, Mode: ModeTango, Seed: 9}), buckets, interval)).(*WindowedCountMin)
		},
		"Conservative": func() *WindowedCountMin {
			return MustBuild(Windowed(ConservativeOf(Options{Width: 1 << 10, Seed: 9}), buckets, interval)).(*WindowedCountMin)
		},
	}
	for name, build := range builds {
		w := build()
		for i, x := range data {
			w.Increment(x)
			// Checkpoints: prime-strided mid-bucket points plus every
			// rotation boundary (i+1 a multiple of the interval).
			if i%3001 != 0 && (i+1)%interval != 0 {
				continue
			}
			ref := fromScratchCMS(w)
			view := w.ring.View()
			refBlob, refErr := ref.MarshalBinary()
			viewBlob, viewErr := view.MarshalBinary()
			switch {
			case refErr == nil && viewErr == nil:
				if !bytes.Equal(refBlob, viewBlob) {
					t.Fatalf("%s: after %d items: view marshal differs from from-scratch merge", name, i+1)
				}
			default: // Tango rows don't serialize; compare estimates instead
				for x := uint64(0); x < 2000; x++ {
					if a, b := view.Query(x), ref.Query(x); a != b {
						t.Fatalf("%s: after %d items: item %d: view %d != from-scratch %d", name, i+1, x, a, b)
					}
				}
			}
		}
		if w.Rotations() == 0 {
			t.Fatalf("%s: stream never rotated the window", name)
		}
	}
}

// TestWindowedCountSketchEqualsFromScratchMerge is the signed-merge version
// of the slot-exact check, over SALSA and baseline rows.
func TestWindowedCountSketchEqualsFromScratchMerge(t *testing.T) {
	data := stream.Zipf(24000, 1500, 1.0, 83)
	const buckets, interval = 3, 3000
	for name, opt := range map[string]Options{
		"SALSA":    {Width: 1 << 10, Seed: 4},
		"Baseline": {Width: 1 << 10, Mode: ModeBaseline, Seed: 4},
	} {
		w := MustBuild(Windowed(CountSketchOf(opt), buckets, interval)).(*WindowedCountSketch)
		for i, x := range data {
			w.Update(x, 1+int64(i%3)) // mixed positive weights
			if i%2503 != 0 && (i+1)%interval != 0 {
				continue
			}
			fresh := sketch.NewCountSketch(w.opt.Depth, w.opt.Width, signedRowSpec(w.opt), w.opt.Seed)
			w.ring.LiveBuckets(func(_ int, b *sketch.CountSketch) { fresh.MergeFrom(b, 1) })
			refBlob, err1 := fresh.MarshalBinary()
			viewBlob, err2 := w.ring.View().MarshalBinary()
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: marshal failed: %v / %v", name, err1, err2)
			}
			if !bytes.Equal(refBlob, viewBlob) {
				t.Fatalf("%s: after %d items: view marshal differs from from-scratch merge", name, i+1)
			}
		}
	}
}

// --- sliding-window oracle property ----------------------------------------

// TestWindowedOracleProperty pins the window semantics against an exact
// sliding-window oracle: the live window is precisely the last
// WindowVolume() items (a contiguous stream suffix), so the CountMin
// overestimate guarantee holds against exact counts over that suffix, and
// versus the nominal B·interval-item window the estimate trails by at most
// the items in one bucket of slack. The sketch-noise upper bound uses a
// generous multiple of the expected per-row collision mass.
func TestWindowedOracleProperty(t *testing.T) {
	const (
		n, universe = 60000, 3000
		buckets     = 4
		interval    = 5000
		nominal     = buckets * interval // 20000-item target window
		width       = 1 << 12
	)
	data := stream.Zipf(n, universe, 1.0, 101)
	// Query sample: the first 200 distinct item ids of the stream, which
	// skews toward its heavy items.
	var sample []uint64
	seen := make(map[uint64]bool)
	for _, x := range data {
		if !seen[x] {
			seen[x] = true
			sample = append(sample, x)
			if len(sample) == 200 {
				break
			}
		}
	}
	exactOver := func(part []uint64) map[uint64]uint64 {
		m := make(map[uint64]uint64)
		for _, x := range part {
			m[x]++
		}
		return m
	}
	for name, build := range map[string]func() *WindowedCountMin{
		"CountMin": func() *WindowedCountMin {
			return MustBuild(Windowed(CountMinOf(Options{Width: width, Seed: 55}), buckets, interval)).(*WindowedCountMin)
		},
		"Baseline": func() *WindowedCountMin {
			return MustBuild(Windowed(CountMinOf(Options{Width: width, Mode: ModeBaseline, Seed: 55}), buckets, interval)).(*WindowedCountMin)
		},
		"Conservative": func() *WindowedCountMin {
			return MustBuild(Windowed(ConservativeOf(Options{Width: width, Seed: 55}), buckets, interval)).(*WindowedCountMin)
		},
	} {
		w := build()
		for i, x := range data {
			w.Increment(x)
			if i < nominal || i%7001 != 0 {
				continue
			}
			live := uint64(i+1) - w.WindowVolume() // start of the live suffix
			exactLive := exactOver(data[live : i+1])
			exactNominal := exactOver(data[i+1-nominal : i+1])
			if got := uint64(i+1) - live; got > nominal || got <= nominal-interval {
				t.Fatalf("%s: live window %d items, want in (%d, %d]", name, got, nominal-interval, nominal)
			}
			// 4·L/width is ~4x the expected per-row collision mass; the
			// min over depth rows sits far below it on this stream.
			noise := uint64(4 * w.WindowVolume() / width)
			for _, id := range sample {
				est := w.Query(id)
				if est < exactLive[id] {
					t.Fatalf("%s: item %d: estimate %d < exact live count %d", name, id, est, exactLive[id])
				}
				if est+uint64(interval) < exactNominal[id] {
					t.Fatalf("%s: item %d: estimate %d more than one bucket below nominal-window count %d",
						name, id, est, exactNominal[id])
				}
				if est > exactLive[id]+noise {
					t.Fatalf("%s: item %d: estimate %d exceeds exact %d + noise bound %d",
						name, id, est, exactLive[id], noise)
				}
			}
		}
	}
}

// TestWindowedEviction pins the headline behavior: a heavy hitter from an
// old epoch disappears from windowed estimates after B rotations, while a
// whole-stream sketch keeps reporting it forever.
func TestWindowedEviction(t *testing.T) {
	const heavy = uint64(0xdeadbeef)
	opt := Options{Width: 1 << 12, Seed: 3}
	w := MustBuild(Windowed(CountMinOf(opt), 3, 1000)).(*WindowedCountMin)
	whole := MustBuild(CountMinOf(opt)).(*CountMin)
	for i := 0; i < 1000; i++ {
		w.Increment(heavy)
		whole.Increment(heavy)
	}
	bg := stream.Zipf(6000, 4000, 1.0, 9)
	for _, x := range bg {
		w.Increment(x)
		whole.Increment(x)
	}
	if got := w.Query(heavy); got > 50 {
		t.Fatalf("windowed estimate %d for evicted heavy hitter, want ~0", got)
	}
	if whole.Query(heavy) < 1000 {
		t.Fatal("whole-stream sketch lost the heavy hitter")
	}

	cs := MustBuild(Windowed(CountSketchOf(opt), 3, 1000)).(*WindowedCountSketch)
	for i := 0; i < 1000; i++ {
		cs.Increment(heavy)
	}
	for _, x := range bg {
		cs.Increment(x)
	}
	if got := cs.Query(heavy); got > 50 || got < -50 {
		t.Fatalf("windowed CountSketch estimate %d for evicted heavy hitter, want ~0", got)
	}
}

// --- windowed heavy hitters -------------------------------------------------

// TestWindowedMonitorCandidateUnion is the regression for per-bucket
// candidate truncation: heavy hitters concentrated in different buckets
// must ALL surface from the union of per-bucket candidate sets, even when
// their number exceeds k (a k-truncated merged view would drop them).
func TestWindowedMonitorCandidateUnion(t *testing.T) {
	const (
		k, buckets, interval = 4, 3, 3000
		perBucketHeavies     = 3 // fits each bucket's k-entry candidate set
		reps                 = 300
	)
	m := MustBuild(Windowed(MonitorOf(Options{Width: 1 << 12, Seed: 31}, k), buckets, interval)).(*WindowedMonitor)
	// Each bucket phase plants its own set of 3 heavy items amid unique
	// background noise; across the B−1 closed live buckets that is 6
	// window-wide heavy hitters — more than k, so a merged view truncated
	// to the global top k could not return them all.
	noise := uint64(1 << 40)
	for phase := 0; phase < buckets; phase++ {
		for r := 0; r < reps; r++ {
			for h := 0; h < perBucketHeavies; h++ {
				m.Process(uint64(phase*100 + h + 1))
			}
		}
		for i := 0; i < interval-perBucketHeavies*reps; i++ {
			m.Process(noise)
			noise++
		}
	}
	if got := m.Rotations(); got != buckets {
		t.Fatalf("rotations = %d, want %d", got, buckets)
	}
	// After exactly B rotations the current bucket is empty and the live
	// window holds phases 1..B-1 plus... phase 0 rotated out with the B-th
	// rotation, so re-plant phase 0's heavies are NOT expected; check the
	// still-live phases.
	hh := m.HeavyHitters(float64(reps) / float64(2*m.WindowVolume()))
	if len(hh) <= k {
		t.Fatalf("HeavyHitters returned %d items, want > k=%d (candidates truncated?)", len(hh), k)
	}
	got := make(map[uint64]bool, len(hh))
	for _, e := range hh {
		got[e.Item] = true
	}
	for phase := 1; phase < buckets; phase++ {
		for h := 0; h < perBucketHeavies; h++ {
			item := uint64(phase*100 + h + 1)
			if !got[item] {
				t.Fatalf("phase-%d heavy item %d missing from HeavyHitters (%d returned)", phase, item, len(hh))
			}
		}
	}
	// Evicted phase-0 heavies must no longer be candidates.
	for h := 0; h < perBucketHeavies; h++ {
		if got[uint64(h+1)] {
			t.Fatalf("evicted phase-0 item %d still reported", h+1)
		}
	}
	if top := m.Top(); len(top) != k {
		t.Fatalf("Top() returned %d items, want k=%d", len(top), k)
	}
}

// TestWindowedMonitorTracksRecency: the windowed tracker follows the
// stream's current heavy hitter while a whole-stream Monitor stays pinned
// to the historically largest item.
func TestWindowedMonitorTracksRecency(t *testing.T) {
	opt := Options{Width: 1 << 12, Seed: 19}
	wm := MustBuild(Windowed(MonitorOf(opt, 4), 3, 2000)).(*WindowedMonitor)
	whole := MustBuild(MonitorOf(opt, 4)).(*Monitor)
	feed := func(heavy uint64, n int, seed uint64) {
		bg := stream.Zipf(n, 3000, 0.8, seed)
		for i, x := range bg {
			if i%3 == 0 {
				wm.Process(heavy)
				whole.Process(heavy)
			}
			wm.Process(x)
			whole.Process(x)
		}
	}
	feed(111, 6000, 1) // epoch 1: item 111 dominates
	feed(222, 9000, 2) // epochs later: item 222 dominates; 111 rotates out
	wTop := wm.Top()
	if len(wTop) == 0 || wTop[0].Item != 222 {
		t.Fatalf("windowed top = %+v, want item 222 first", wTop)
	}
	for _, e := range wTop {
		if e.Item == 111 {
			t.Fatal("evicted epoch-1 heavy hitter still in windowed top-k")
		}
	}
	hTop := whole.Top()
	found111 := false
	for _, e := range hTop {
		found111 = found111 || e.Item == 111
	}
	if !found111 {
		t.Fatalf("whole-stream monitor lost item 111: %+v", hTop)
	}
}

// --- sharded windowed hammer (run with -race) -------------------------------

// TestShardedWindowedCountMinHammer mixes single updates, batches, point
// and batch queries, and concurrent Ticks over Sharded[*WindowedCountMin].
// During the storm only race-freedom and bookkeeping are asserted; a
// tick-free epilogue then pins the overestimate guarantee for items whose
// full history is inside every shard's current bucket.
func TestShardedWindowedCountMinHammer(t *testing.T) {
	s := MustBuild(ShardedBy(Windowed(CountMinOf(Options{Width: 1 << 10, Seed: 47}), 4, 0), 8)).(*ShardedWindowedCountMin)
	const perG, universe = 4096, 64
	var ticks atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]uint64, 0, 128)
			qbuf := make([]uint64, 0, 16)
			for i := 0; i < perG; i++ {
				x := uint64(i % universe)
				switch (i + i/universe) % 5 {
				case 0:
					s.Increment(x)
				case 1:
					batch = append(batch, x)
					if len(batch) == cap(batch) {
						s.IncrementBatch(batch)
						batch = batch[:0]
					} else {
						s.Update(x, 1)
					}
				case 2:
					s.Update(x, 1)
					_ = s.Query(x)
				case 3:
					s.Increment(x)
					qbuf = s.QueryBatch([]uint64{x, x + 1}, qbuf[:0])
				default:
					s.Increment(x)
					if i%512 == 0 && g == 0 {
						s.Tick()
						ticks.Add(1)
					}
				}
			}
			s.IncrementBatch(batch)
		}(g)
	}
	wg.Wait()
	for i := 0; i < s.Shards(); i++ {
		if got := s.Shard(i).Rotations(); got != uint64(ticks.Load()) {
			t.Fatalf("shard %d: rotations %d, want %d", i, got, ticks.Load())
		}
	}
	// Tick-free epilogue: everything lands in current buckets, so the
	// windowed estimate must overestimate the epilogue counts.
	const epiReps = 64
	for r := 0; r < epiReps; r++ {
		for x := uint64(0); x < universe; x++ {
			s.Increment(x + 1000)
		}
	}
	for x := uint64(0); x < universe; x++ {
		if got := s.Query(x + 1000); got < epiReps {
			t.Fatalf("item %d: estimate %d < epilogue truth %d", x+1000, got, epiReps)
		}
	}
	if s.MemoryBits() == 0 {
		t.Fatal("no memory accounted")
	}
}

// TestShardedWindowedCountSketchSmoke checks the signed windowed backend
// under the sharded layer: batch ingestion, queries, and a global Tick.
func TestShardedWindowedCountSketchSmoke(t *testing.T) {
	s := MustBuild(ShardedBy(Windowed(CountSketchOf(Options{Width: 1 << 12, Seed: 11}), 3, 0), 4)).(*ShardedWindowedCountSketch)
	data := stream.Zipf(30000, 1000, 1.0, 13)
	s.IncrementBatch(data)
	truth := make(map[uint64]int64)
	for _, x := range data {
		truth[x]++
	}
	heaviest, best := uint64(0), int64(0)
	for x, c := range truth {
		if c > best {
			heaviest, best = x, c
		}
	}
	if got := s.Query(heaviest); got < best/2 || got > best*2 {
		t.Fatalf("estimate %d implausible for truth %d", got, best)
	}
	for i := 0; i < 3; i++ {
		s.Tick()
	}
	if got := s.Query(heaviest); got > best/4 || got < -best/4 {
		t.Fatalf("estimate %d after full eviction, want ~0", got)
	}
	est := s.QueryBatch([]uint64{heaviest, 1, 2}, nil)
	if len(est) != 3 {
		t.Fatalf("QueryBatch returned %d results, want 3", len(est))
	}
}

// TestWindowedPanics pins constructor validation.
func TestWindowedPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero buckets":      func() { MustBuild(Windowed(CountMinOf(Options{Width: 64}), 0, 10)) },
		"negative interval": func() { MustBuild(Windowed(CountMinOf(Options{Width: 64}), 2, -1)) },
		"tango countsketch": func() { MustBuild(Windowed(CountSketchOf(Options{Width: 64, Mode: ModeTango}), 2, 10)) },
		"max-merge window":  func() { MustBuild(Windowed(CountMinOf(Options{Width: 64, Merge: MergeMax}), 2, 10)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
