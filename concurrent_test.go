package salsa

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"salsa/internal/stream"
)

// --- batch/sequential equivalence -----------------------------------------

// TestBatchEqualsSequential pins the public batch contract on Zipf streams:
// UpdateBatch leaves a sketch answering identically to per-item Updates, for
// every backend mode and both CountMin rules.
func TestBatchEqualsSequential(t *testing.T) {
	data := stream.Zipf(80000, 4000, 1.0, 21)
	builds := map[string]func() Sketch{
		"CountMinSALSA": func() Sketch { return MustBuild(CountMinOf(Options{Width: 1 << 10, Seed: 9})) },
		"CountMinBaseline": func() Sketch {
			return MustBuild(CountMinOf(Options{Width: 1 << 10, Mode: ModeBaseline, Seed: 9}))
		},
		"CountMinTango": func() Sketch {
			return MustBuild(CountMinOf(Options{Width: 1 << 10, Mode: ModeTango, Seed: 9}))
		},
		"CountMinTangoSum": func() Sketch {
			return MustBuild(CountMinOf(Options{Width: 1 << 10, Mode: ModeTango, Merge: MergeSum, Seed: 9}))
		},
		"CountMinCompact": func() Sketch {
			return MustBuild(CountMinOf(Options{Width: 1 << 10, CompactEncoding: true, Seed: 9}))
		},
		"ConservativeUpdate": func() Sketch { return MustBuild(ConservativeOf(Options{Width: 1 << 10, Seed: 9})) },
		"ConservativeTango": func() Sketch {
			return MustBuild(ConservativeOf(Options{Width: 1 << 10, Mode: ModeTango, Seed: 9}))
		},
		"CountSketch": func() Sketch { return MustBuild(CountSketchOf(Options{Width: 1 << 10, Seed: 9})) },
		"Monitor":     func() Sketch { return MustBuild(MonitorOf(Options{Width: 1 << 10, Seed: 9}, 32)) },
		// Windowed types: the 777-item test batches straddle the 2000-item
		// rotation boundaries, so this also pins the batch-splitting path.
		"WindowedCountMin": func() Sketch {
			return MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, Seed: 9}), 4, 2000))
		},
		"WindowedTango": func() Sketch {
			return MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, Mode: ModeTango, Seed: 9}), 4, 2000))
		},
		"WindowedConservative": func() Sketch {
			return MustBuild(Windowed(ConservativeOf(Options{Width: 1 << 10, Seed: 9}), 4, 2000))
		},
		"WindowedCountSketch": func() Sketch {
			return MustBuild(Windowed(CountSketchOf(Options{Width: 1 << 10, Seed: 9}), 4, 2000))
		},
		"WindowedMonitor": func() Sketch {
			return MustBuild(Windowed(MonitorOf(Options{Width: 1 << 10, Seed: 9}, 32), 4, 2000))
		},
	}
	type pointQuery interface{ Query(uint64) uint64 }
	type signedQuery interface{ Query(uint64) int64 }
	for name, build := range builds {
		seq, bat := build(), build()
		for _, x := range data {
			seq.Update(x, 1)
		}
		for off := 0; off < len(data); off += 777 {
			end := off + 777
			if end > len(data) {
				end = len(data)
			}
			bat.UpdateBatch(data[off:end], 1)
		}
		for x := uint64(0); x < 4000; x++ {
			switch s := seq.(type) {
			case pointQuery:
				if a, b := s.Query(x), bat.(pointQuery).Query(x); a != b {
					t.Fatalf("%s: item %d: sequential %d != batch %d", name, x, a, b)
				}
			case signedQuery:
				if a, b := s.Query(x), bat.(signedQuery).Query(x); a != b {
					t.Fatalf("%s: item %d: sequential %d != batch %d", name, x, a, b)
				}
			case *Monitor:
				if a, b := s.Sketch().Query(x), bat.(*Monitor).Sketch().Query(x); a != b {
					t.Fatalf("%s: item %d: sequential %d != batch %d", name, x, a, b)
				}
			}
		}
	}
}

// TestShardedBatchEqualsSequential pins the sharded batch contract: for a
// fixed seed, IncrementBatch routes and applies exactly like a sequential
// loop of single Increments, so both Sharded instances answer identically
// (and QueryBatch agrees with Query).
func TestShardedBatchEqualsSequential(t *testing.T) {
	data := stream.Zipf(100000, 5000, 1.0, 33)
	for name, build := range map[string]func() *ShardedCountMin{
		"SALSA": func() *ShardedCountMin {
			return MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 10, Seed: 12}), 8)).(*ShardedCountMin)
		},
		"Tango": func() *ShardedCountMin {
			return MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 10, Mode: ModeTango, Seed: 12}), 8)).(*ShardedCountMin)
		},
		"Windowed": nil, // handled below; keeps the subtest names aligned
	} {
		t.Run(name, func(t *testing.T) {
			type queryable interface {
				Increment(uint64)
				IncrementBatch([]uint64)
				Query(uint64) uint64
				QueryBatch([]uint64, []uint64) []uint64
			}
			var seq, bat queryable
			if build != nil {
				seq, bat = build(), build()
			} else {
				opt := Options{Width: 1 << 10, Seed: 12}
				// Per-shard rotation every 3000 substream items: batches
				// straddle rotation boundaries shard by shard.
				seq = MustBuild(ShardedBy(Windowed(CountMinOf(opt), 3, 3000), 8)).(*ShardedWindowedCountMin)
				bat = MustBuild(ShardedBy(Windowed(CountMinOf(opt), 3, 3000), 8)).(*ShardedWindowedCountMin)
			}
			for _, x := range data {
				seq.Increment(x)
			}
			for off := 0; off < len(data); off += 4096 {
				end := off + 4096
				if end > len(data) {
					end = len(data)
				}
				bat.IncrementBatch(data[off:end])
			}
			items := make([]uint64, 5000)
			for i := range items {
				items[i] = uint64(i)
			}
			est := bat.QueryBatch(items, nil)
			for _, x := range items {
				if a, b := seq.Query(x), bat.Query(x); a != b {
					t.Fatalf("item %d: sequential %d != batch %d", x, a, b)
				}
				if est[x] != bat.Query(x) {
					t.Fatalf("item %d: QueryBatch %d != Query %d", x, est[x], bat.Query(x))
				}
			}
		})
	}
}

// TestShardedMergeEqualsSequential: shards built with one shared seed and
// sum-merge are mergeable, and because every item lives in exactly one
// shard, folding all shards into a single sketch reproduces the sequential
// single-update sketch's estimates exactly — in Baseline and SALSA modes.
func TestShardedMergeEqualsSequential(t *testing.T) {
	data := stream.Zipf(120000, 5000, 1.0, 29)
	for _, mode := range []Mode{ModeBaseline, ModeSALSA} {
		opt := Options{Width: 1 << 10, Mode: mode, Merge: MergeSum, Seed: 5}
		seq := MustBuild(CountMinOf(opt)).(*CountMin)
		for _, x := range data {
			seq.Increment(x)
		}
		sh := NewSharded(8, 999, func(int) *CountMin { return MustBuild(CountMinOf(opt)).(*CountMin) })
		sh.IncrementBatch(data)
		merged := MustBuild(CountMinOf(opt)).(*CountMin)
		for i := 0; i < sh.Shards(); i++ {
			merged.Merge(sh.Shard(i))
		}
		for x := uint64(0); x < 5000; x++ {
			if a, b := seq.Query(x), merged.Query(x); a != b {
				t.Fatalf("mode %v: item %d: sequential %d != merged shards %d", mode, x, a, b)
			}
		}
	}
}

// TestWriterEqualsUnbuffered: per-goroutine write buffers reorder across
// shards but preserve per-shard arrival order, so after Flush the sketch
// answers identically to unbuffered ingestion.
func TestWriterEqualsUnbuffered(t *testing.T) {
	data := stream.Zipf(60000, 3000, 1.0, 41)
	opt := Options{Width: 1 << 10, Seed: 17}
	direct := MustBuild(ShardedBy(CountMinOf(opt), 4)).(*ShardedCountMin)
	buffered := MustBuild(ShardedBy(CountMinOf(opt), 4)).(*ShardedCountMin)
	w := buffered.NewWriter(64)
	for i, x := range data {
		direct.Increment(x)
		if i%97 == 0 {
			w.Update(x, 1) // count==1 goes through the buffer
		} else {
			w.Increment(x)
		}
	}
	w.Flush()
	for x := uint64(0); x < 3000; x++ {
		if a, b := direct.Query(x), buffered.Query(x); a != b {
			t.Fatalf("item %d: direct %d != buffered %d", x, a, b)
		}
	}
}

// --- race hammer tests (run with -race) ------------------------------------

// hammer fires fn from 8 goroutines with disjoint worker ids.
func hammer(t *testing.T, fn func(worker int)) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
}

// TestShardedCountMinHammer mixes single updates, batches, point queries
// and batch queries from 8 goroutines; afterwards every estimate must hold
// the CountMin overestimate guarantee against the known truth. perG is a
// multiple of universe so every item's exact count is at least
// 8·perG/universe regardless of where each goroutine's loop ends.
func TestShardedCountMinHammer(t *testing.T) {
	const perG, universe = 4096, 64
	for name, s := range map[string]*ShardedCountMin{
		"CountMin":     MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 10, Seed: 7}), 8)).(*ShardedCountMin),
		"Conservative": MustBuild(ShardedBy(ConservativeOf(Options{Width: 1 << 10, Seed: 7}), 8)).(*ShardedCountMin),
	} {
		hammer(t, func(g int) {
			batch := make([]uint64, 0, 128)
			qbuf := make([]uint64, 0, 16)
			for i := 0; i < perG; i++ {
				x := uint64(i % universe)
				// universe divides 4 evenly, so i%4 alone would pin each
				// item to one op; adding the cycle number rotates the op
				// mix across occurrences of every item.
				switch (i + i/universe) % 4 {
				case 0:
					s.Increment(x)
				case 1:
					batch = append(batch, x)
					if len(batch) == cap(batch) {
						s.IncrementBatch(batch)
						batch = batch[:0]
					} else {
						s.Update(x, 1) // keep the per-item tally exact
					}
				case 2:
					s.Update(x, 1)
					_ = s.Query(x)
				default:
					s.Increment(x)
					qbuf = s.QueryBatch([]uint64{x, x + 1}, qbuf[:0])
				}
			}
			s.IncrementBatch(batch)
		})
		truth := uint64(8 * perG / universe)
		for x := uint64(0); x < universe; x++ {
			if got := s.Query(x); got < truth {
				t.Fatalf("%s: item %d: estimate %d < truth %d", name, x, got, truth)
			}
		}
		if s.MemoryBits() == 0 {
			t.Fatalf("%s: no memory accounted", name)
		}
	}
}

// TestShardedCountSketchHammer checks the signed path races clean and stays
// plausibly near truth (Count Sketch is unbiased, not an overestimate).
func TestShardedCountSketchHammer(t *testing.T) {
	s := MustBuild(ShardedBy(CountSketchOf(Options{Width: 1 << 12, Seed: 13}), 8)).(*ShardedCountSketch)
	const perG, universe = 4096, 64
	hammer(t, func(g int) {
		batch := make([]uint64, 0, 256)
		for i := 0; i < perG; i++ {
			batch = append(batch, uint64(i%universe))
			if len(batch) == cap(batch) {
				s.IncrementBatch(batch)
				batch = batch[:0]
			}
			if i%16 == 0 {
				_ = s.Query(uint64(i % universe))
			}
		}
		s.IncrementBatch(batch)
	})
	truth := int64(8 * perG / universe)
	for x := uint64(0); x < universe; x++ {
		got := s.Query(x)
		if got < truth/2 || got > truth*2 {
			t.Fatalf("item %d: estimate %d implausible for truth %d", x, got, truth)
		}
	}
}

// TestShardedMonitorHammer runs the heavy-hitter tracker concurrently and
// checks the merged top-k surfaces the planted heavy item.
func TestShardedMonitorHammer(t *testing.T) {
	s := MustBuild(ShardedBy(MonitorOf(Options{Width: 1 << 10, Seed: 23}, 16), 8)).(*ShardedMonitor)
	const heavy = uint64(424242)
	hammer(t, func(g int) {
		for i := 0; i < 3000; i++ {
			if i%3 == 0 {
				s.Increment(heavy)
			} else {
				s.Increment(uint64(g*10000 + i))
			}
			if i%64 == 0 {
				_ = s.Top()
			}
		}
	})
	top := s.Top()
	if len(top) == 0 || top[0].Item != heavy {
		t.Fatalf("heavy item not at top: %+v", top[:min(len(top), 3)])
	}
	if hh := s.HeavyHitters(0.2, 8*3000); len(hh) != 1 || hh[0].Item != heavy {
		t.Fatalf("HeavyHitters = %+v, want only %d", hh, heavy)
	}
	if q := s.Query(heavy); q < 8*1000 {
		t.Fatalf("Query(heavy) = %d, want >= %d", q, 8*1000)
	}
}

// TestShardedMonitorHeavyHittersBeyondK: HeavyHitters draws from the full
// k·shards candidate set, so it can surface more than k qualifying items
// (Top() alone truncates to k).
func TestShardedMonitorHeavyHittersBeyondK(t *testing.T) {
	const k, items, reps = 4, 20, 100
	s := MustBuild(ShardedBy(MonitorOf(Options{Width: 1 << 10, Seed: 3}, k), 8)).(*ShardedMonitor)
	for x := uint64(1); x <= items; x++ {
		for c := 0; c < reps; c++ {
			s.Increment(x)
		}
	}
	if top := s.Top(); len(top) != k {
		t.Fatalf("Top() returned %d items, want %d", len(top), k)
	}
	// Every item clears the threshold; all that are tracked (per-shard
	// heaps hold k each, far above the ~2.5 items routed per shard) must
	// be returned, not just the global top k.
	hh := s.HeavyHitters(float64(reps)/(2*items*reps), items*reps)
	if len(hh) <= k {
		t.Fatalf("HeavyHitters returned %d items, want > k=%d (truncated to Top?)", len(hh), k)
	}
	for _, e := range hh {
		if e.Count < reps {
			t.Fatalf("item %d: estimate %d < truth %d", e.Item, e.Count, reps)
		}
	}
}

// TestShardedMonitorTopOrdersTiesByItem: equal estimates order by item, as
// Monitor.Top and ShardedWindowedMonitor.Top do, so a k cut keeps the same
// items whichever shard tracks them.
func TestShardedMonitorTopOrdersTiesByItem(t *testing.T) {
	opt := Options{Width: 1 << 10, Seed: 21}
	sharded := MustBuild(ShardedBy(MonitorOf(opt, 8), 4)).(*ShardedMonitor)
	plain := MustBuild(MonitorOf(opt, 8)).(*Monitor)
	for x := uint64(1); x <= 6; x++ {
		sharded.Update(x, 7)
		plain.Update(x, 7)
	}
	want := []ItemCount{{1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}, {6, 7}}
	if got := sharded.Top(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ShardedMonitor.Top = %v, want %v", got, want)
	}
	if got := plain.Top(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Monitor.Top = %v, want %v", got, want)
	}
}

// TestWriterHammer gives each goroutine its own Writer over one shared
// Sharded sketch — the intended amortized-flush ingestion topology.
func TestWriterHammer(t *testing.T) {
	s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 10, Seed: 31}), runtime.GOMAXPROCS(0))).(*ShardedCountMin)
	const perG, universe = 5000, 100
	hammer(t, func(g int) {
		w := s.NewWriter(128)
		for i := 0; i < perG; i++ {
			w.Increment(uint64(i % universe))
		}
		w.Flush()
	})
	truth := uint64(8 * perG / universe)
	for x := uint64(0); x < universe; x++ {
		if got := s.Query(x); got < truth {
			t.Fatalf("item %d: estimate %d < truth %d", x, got, truth)
		}
	}
}

// --- marshal round-trips over the batch path --------------------------------

// TestBatchIngestedMarshalRoundTrip mirrors marshal_test.go's golden checks
// for sketches filled via UpdateBatch: decode must answer identically and
// keep interoperating (Merge with a seed-sharing peer).
func TestBatchIngestedMarshalRoundTrip(t *testing.T) {
	data := stream.Zipf(30000, 1500, 1.0, 51)
	for _, opt := range []Options{
		{Width: 512, Seed: 3},
		{Width: 512, Mode: ModeBaseline, Seed: 3},
		{Width: 512, CompactEncoding: true, Seed: 3},
	} {
		cm := MustBuild(CountMinOf(opt)).(*CountMin)
		cm.IncrementBatch(data)
		blob, err := cm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalCountMin(blob)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < 1500; x++ {
			if back.Query(x) != cm.Query(x) {
				t.Fatalf("opt %+v: query mismatch for %d", opt, x)
			}
		}
		peer := MustBuild(CountMinOf(opt)).(*CountMin)
		peer.UpdateBatch([]uint64{99, 99, 99}, 1)
		back.Merge(peer)
		if back.Query(99) < cm.Query(99)+3 {
			t.Fatal("decoded sketch cannot merge batch-built peer")
		}
	}

	cs := MustBuild(CountSketchOf(Options{Width: 1024, Seed: 6})).(*CountSketch)
	cs.UpdateBatch(data, 2)
	blob, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	backCS, err := UnmarshalCountSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 1500; x++ {
		if backCS.Query(x) != cs.Query(x) {
			t.Fatalf("CountSketch query mismatch for %d", x)
		}
	}
}

// TestShardedMarshalRoundTrip ships each shard separately — the distributed
// use case — and reassembles a Sharded sketch from the decoded shards,
// which must answer exactly like the original.
func TestShardedMarshalRoundTrip(t *testing.T) {
	opt := Options{Width: 512, Seed: 61}
	s := MustBuild(ShardedBy(CountMinOf(opt), 4)).(*ShardedCountMin)
	data := stream.Zipf(40000, 2000, 1.0, 71)
	s.IncrementBatch(data)

	blobs := make([][]byte, s.Shards())
	for i := range blobs {
		var err error
		if blobs[i], err = s.Shard(i).MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := &ShardedCountMin{NewSharded(len(blobs), routeSeed(opt), func(i int) *CountMin {
		cm, err := UnmarshalCountMin(blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		return cm
	})}
	for x := uint64(0); x < 2000; x++ {
		if a, b := s.Query(x), rebuilt.Query(x); a != b {
			t.Fatalf("item %d: original %d != rebuilt %d", x, a, b)
		}
	}
	// The rebuilt sketch must remain live for further (batch) ingestion.
	rebuilt.IncrementBatch(data[:1000])
	if rebuilt.Query(data[0]) < s.Query(data[0]) {
		t.Fatal("rebuilt sketch not live")
	}
}

// TestNewShardedBoundsShardCount: the generic constructor enforces the
// envelope decoder's shard cap, so a directly constructed Sharded can
// never Marshal into a payload Unmarshal must reject.
func TestNewShardedBoundsShardCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded accepted 1<<17 shards")
		}
	}()
	NewSharded(1<<17, 1, func(int) *CountMin {
		return MustBuild(CountMinOf(Options{Width: 64})).(*CountMin)
	})
}

// --- Writer teardown and windowed flush semantics ---------------------------

// TestWriterCloseSemantics pins the Writer lifecycle: Close flushes the
// buffered tail, is idempotent, and any later use panics.
func TestWriterCloseSemantics(t *testing.T) {
	s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 10, Seed: 33}), 4)).(*ShardedCountMin)
	w := s.NewWriter(128)
	for i := 0; i < 100; i++ {
		w.Increment(uint64(i % 10))
	}
	w.Close()
	w.Close() // idempotent
	for x := uint64(0); x < 10; x++ {
		if got := s.Query(x); got < 10 {
			t.Fatalf("Close lost buffered items: Query(%d) = %d, want >= 10", x, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("use after Close did not panic")
		}
	}()
	w.Increment(1)
}

// TestWriterFlushBeforeTickEquivalence pins the documented window-bucket
// contract: a Writer that flushes before every Tick produces a window
// byte-identical to unbuffered ingestion with the same tick positions —
// buffering never smears items across bucket boundaries.
func TestWriterFlushBeforeTickEquivalence(t *testing.T) {
	opt := Options{Width: 1 << 10, Seed: 35}
	buffered := MustBuild(ShardedBy(Windowed(CountMinOf(opt), 4, 0), 4)).(*ShardedWindowedCountMin)
	direct := MustBuild(ShardedBy(Windowed(CountMinOf(opt), 4, 0), 4)).(*ShardedWindowedCountMin)
	trace := stream.Zipf(6000, 300, 0.99, 35)
	w := buffered.NewWriter(64)
	for i, x := range trace {
		w.Increment(x)
		direct.Increment(x)
		if i%500 == 499 {
			w.Flush()
			buffered.Tick()
			direct.Tick()
		}
	}
	w.Close()
	for x := uint64(0); x < 300; x++ {
		if b, d := buffered.Query(x), direct.Query(x); b != d {
			t.Fatalf("buffered window diverges at item %d: %d vs %d", x, b, d)
		}
	}
	a, err := Marshal(buffered)
	if err != nil {
		t.Fatalf("marshal buffered: %v", err)
	}
	b, err := Marshal(direct)
	if err != nil {
		t.Fatalf("marshal direct: %v", err)
	}
	if string(a) != string(b) {
		t.Fatal("flush-before-tick windows are not byte-identical")
	}
}

// TestWriterWindowedTickHammer drives Writers through concurrent
// Tick/Flush/Close on a Tick-driven sharded window: 8 goroutines ingest
// through buffered writers with mid-run close-and-reopen churn while one
// rotates the window. Rotations retire data, so the post-quiesce checks
// are structural: every shard saw every Tick exactly once, the live
// window never exceeds the ingested volume, and a tail ingested after the
// ticker stops is fully visible (nothing wedged in a buffer or a lock).
func TestWriterWindowedTickHammer(t *testing.T) {
	s := MustBuild(ShardedBy(Windowed(CountMinOf(Options{Width: 1 << 10, Seed: 37}), 4, 0), 4)).(*ShardedWindowedCountMin)
	const perG, universe = 4000, 100
	done := make(chan struct{})
	var ticker sync.WaitGroup
	var ticks uint64
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Tick()
				ticks++
				runtime.Gosched()
			}
		}
	}()
	hammer(t, func(g int) {
		w := s.NewWriter(64)
		for i := 0; i < perG; i++ {
			w.Increment(uint64((g*perG + i) % universe))
			if i == perG/2 {
				w.Close()
				w = s.NewWriter(64)
			}
			if i%1000 == 999 {
				w.Flush()
			}
		}
		w.Close()
	})
	close(done)
	ticker.Wait()
	var live uint64
	for i := 0; i < s.Shards(); i++ {
		sh := s.Shard(i)
		if got := sh.Rotations(); got != ticks {
			t.Fatalf("shard %d rotated %d times, ticker issued %d", i, got, ticks)
		}
		live += sh.WindowVolume()
	}
	if want := uint64(8 * perG); live > want {
		t.Fatalf("live window holds %d items, more than the %d ingested", live, want)
	}
	// Post-quiesce tail: with the ticker stopped, a flushed batch is
	// entirely inside the live window and must obey the overestimate.
	w := s.NewWriter(64)
	for i := 0; i < 500; i++ {
		w.Increment(uint64(i % 10))
	}
	w.Close()
	for x := uint64(0); x < 10; x++ {
		if got := s.Query(x); got < 50 {
			t.Fatalf("post-quiesce tail undercounted: Query(%d) = %d, want >= 50", x, got)
		}
	}
}
