package salsa

import (
	"bytes"
	"sync"
	"testing"

	"salsa/internal/stream"
)

func TestCountMinMarshalRoundTrip(t *testing.T) {
	for _, opt := range []Options{
		{Width: 512, Seed: 3},
		{Width: 512, Mode: ModeBaseline, Seed: 3},
		{Width: 512, CompactEncoding: true, Seed: 3},
	} {
		cm := MustBuild(CountMinOf(opt)).(*CountMin)
		data := stream.Zipf(20000, 500, 1.0, 4)
		for _, x := range data {
			cm.Increment(x)
		}
		blob, err := cm.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalCountMin(blob)
		if err != nil {
			t.Fatal(err)
		}
		for x := uint64(0); x < 2000; x++ {
			if back.Query(x) != cm.Query(x) {
				t.Fatalf("opt %+v: query mismatch for %d", opt, x)
			}
		}
		if back.Options() != cm.Options() {
			t.Fatal("options lost")
		}
		// A decoded sketch must keep working and interoperate with the
		// original's peers (shared seeds).
		peer := MustBuild(CountMinOf(opt)).(*CountMin)
		peer.Update(99, 7)
		back.Merge(peer)
		if back.Query(99) < cm.Query(99)+7 {
			t.Fatal("decoded sketch cannot merge")
		}
	}
}

func TestConservativeSurvivesMarshal(t *testing.T) {
	cu := MustBuild(ConservativeOf(Options{Width: 256, Seed: 5})).(*CountMin)
	cu.Increment(1)
	blob, _ := cu.MarshalBinary()
	back, err := UnmarshalCountMin(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !back.conservative {
		t.Fatal("conservative mode lost")
	}
}

func TestCountSketchMarshalRoundTrip(t *testing.T) {
	cs := MustBuild(CountSketchOf(Options{Width: 1024, Seed: 6})).(*CountSketch)
	cs.Update(1, 300)
	cs.Update(2, -50)
	blob, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCountSketch(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Query(1) != cs.Query(1) || back.Query(2) != cs.Query(2) {
		t.Fatal("queries changed")
	}
	// Change detection across the serialization boundary.
	other := MustBuild(CountSketchOf(Options{Width: 1024, Seed: 6})).(*CountSketch)
	other.Update(1, 100)
	back.Subtract(other)
	if back.Query(1) != 200 {
		t.Fatalf("diff = %d, want 200", back.Query(1))
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := UnmarshalCountMin([]byte("xx")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := UnmarshalCountSketch(nil); err == nil {
		t.Fatal("accepted nil")
	}
	cm := MustBuild(CountMinOf(Options{Width: 128})).(*CountMin)
	blob, _ := cm.MarshalBinary()
	if _, err := UnmarshalCountSketch(blob); err == nil {
		t.Fatal("accepted a CountMin payload as CountSketch")
	}
}

func TestTangoMarshalRoundTrip(t *testing.T) {
	cm := MustBuild(CountMinOf(Options{Width: 128, Mode: ModeTango, Seed: 5})).(*CountMin)
	for i := uint64(0); i < 5000; i++ {
		cm.Update(i%97, int64(i%13)+1) // force fine-grained merges
	}
	blob, err := cm.MarshalBinary()
	if err != nil {
		t.Fatalf("tango marshal: %v", err)
	}
	back, err := UnmarshalCountMin(blob)
	if err != nil {
		t.Fatalf("tango unmarshal: %v", err)
	}
	for i := uint64(0); i < 97; i++ {
		if got, want := back.Query(i), cm.Query(i); got != want {
			t.Fatalf("Query(%d) = %d after round-trip, want %d", i, got, want)
		}
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatalf("tango re-marshal: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("tango round-trip is not byte-identical")
	}
	// Continued ingestion must not diverge from the original.
	for i := uint64(0); i < 3000; i++ {
		cm.Update(i%89, 3)
		back.Update(i%89, 3)
	}
	for i := uint64(0); i < 97; i++ {
		if back.Query(i) != cm.Query(i) {
			t.Fatalf("Query(%d) diverged after continued ingestion", i)
		}
	}
}

func TestShardedCountMinConcurrent(t *testing.T) {
	s := MustBuild(ShardedBy(CountMinOf(Options{Width: 1024, Seed: 7}), 4)).(*ShardedCountMin)
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	const perG = 5000
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Increment(uint64(i % 100))
			}
		}(g)
	}
	wg.Wait()
	for x := uint64(0); x < 100; x++ {
		truth := uint64(goroutines * perG / 100)
		if got := s.Query(x); got < truth {
			t.Fatalf("item %d: %d < truth %d", x, got, truth)
		}
	}
	if s.MemoryBits() == 0 {
		t.Fatal("no memory accounted")
	}
}

func TestShardedRoutesConsistently(t *testing.T) {
	s := MustBuild(ShardedBy(CountMinOf(Options{Width: 256, Seed: 8}), 3)).(*ShardedCountMin) // rounds to 4
	if s.Shards() != 4 {
		t.Fatalf("Shards = %d, want rounding to 4", s.Shards())
	}
	s.Update(42, 10)
	if s.Query(42) != 10 {
		t.Fatalf("Query = %d", s.Query(42))
	}
	if s.Query(43) != 0 {
		t.Fatal("cross-shard contamination")
	}
}
