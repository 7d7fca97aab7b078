package salsa

import (
	"bytes"
	"encoding/binary"
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

// TestUnmarshalChecksOptionsHeader rewrites each word of the options header
// of a SALSA, compact-encoding, Tango and Count Sketch payload to a value
// Build could not have written for the rows after it, and requires
// UnmarshalCountMin or UnmarshalCountSketch, and Unmarshal of the universal
// envelope, to reject every rewrite. Among them: Mode 3 and Merge 3, which
// name no mode or merge policy; a sum-merge Tango sketch relabeled SALSA,
// which SubtractInto would hand to a Tango row; and compact rows labeled
// simple, which CopyInto would copy into simple rows.
func TestUnmarshalChecksOptionsHeader(t *testing.T) {
	words := []string{"Depth", "Width", "Mode", "CounterBits", "Merge", "CompactEncoding", "Seed"}
	for _, tc := range []struct {
		name    string
		spec    Spec
		rewrite [7]uint64 // the value each header word is rewritten to
	}{
		{"salsa", CountMinOf(Options{Width: 256, Seed: 3}),
			[7]uint64{5, 512, 3, 16, uint64(MergeSum), 1, 4}},
		{"compact", CountMinOf(Options{Width: 256, Merge: MergeSum, CompactEncoding: true, Seed: 3}),
			[7]uint64{3, 128, uint64(ModeBaseline), 4, 3, 0, 2}},
		{"tango", CountMinOf(Options{Width: 256, Mode: ModeTango, Merge: MergeSum, Seed: 3}),
			[7]uint64{5, 512, uint64(ModeSALSA), 16, uint64(MergeMax), 1, 4}},
		{"countsketch", CountSketchOf(Options{Width: 256, Seed: 3}),
			[7]uint64{4, 512, uint64(ModeBaseline), 16, uint64(MergeDefault), 1, 4}},
	} {
		sk := MustBuild(tc.spec)
		sk.UpdateBatch(stream.Zipf(5000, 300, 1.0, 8), 3)
		blob, err := sk.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		env, err := Marshal(sk)
		if err != nil {
			t.Fatal(err)
		}
		// The envelope is magic, version, tag and a length-prefixed block
		// holding blob.
		const envHeaderLen = 4 + 1 + 1 + 8
		if !bytes.Equal(env[envHeaderLen:], blob) {
			t.Fatalf("%s: the envelope does not carry MarshalBinary's bytes at %d", tc.name, envHeaderLen)
		}
		decode := func(blob []byte) error {
			if _, ok := sk.(*CountSketch); ok {
				_, err := UnmarshalCountSketch(blob)
				return err
			}
			_, err := UnmarshalCountMin(blob)
			return err
		}
		if err := decode(blob); err != nil {
			t.Fatalf("%s: the unedited payload does not decode: %v", tc.name, err)
		}
		for w, name := range words {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				at := 4 + 8*w
				bad := bytes.Clone(blob)
				binary.LittleEndian.PutUint64(bad[at:], tc.rewrite[w])
				if err := decode(bad); err == nil {
					t.Errorf("a payload whose %s reads %d decoded", name, tc.rewrite[w])
				}
				badEnv := bytes.Clone(env)
				binary.LittleEndian.PutUint64(badEnv[envHeaderLen+at:], tc.rewrite[w])
				if _, err := Unmarshal(badEnv); err == nil {
					t.Errorf("an envelope whose %s reads %d decoded", name, tc.rewrite[w])
				}
			})
		}
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
