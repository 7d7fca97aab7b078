package salsa

import (
	"bytes"
	"testing"
)

// envelopeTagSeeds maps every universal-envelope tag to the name of a
// universalTopologies entry whose Marshal output carries that tag — the
// compile-time ledger that the FuzzUnmarshalUniversal corpus seeds
// every decodable tag. The envelopetag analyzer (cmd/salsalint)
// requires each tag* constant to appear here, so adding a tag without
// extending the fuzz corpus is un-mergeable;
// TestEnvelopeTagSeedsCoverUniversalCorpus pins the map's truthfulness
// (each named topology really marshals to its tag) at run time.
var envelopeTagSeeds = map[byte]string{
	tagCountMin:            "countmin-salsa",
	tagCountSketch:         "countsketch-salsa",
	tagMonitor:             "monitor",
	tagTopK:                "topk",
	tagWindowedCountMin:    "windowed-countmin",
	tagWindowedCountSketch: "windowed-countsketch",
	tagWindowedMonitor:     "windowed-monitor",
	tagSharded:             "sharded-countmin",
	tagUnivMon:             "univmon-salsa",
	tagAEE:                 "aee-salsa",
	tagDistinct:            "distinct",
	tagColdFilter:          "coldfilter-cms",
	tagPyramid:             "pyramid",
	tagWindowedDistinct:    "windowed-distinct",
	tagEpoch:               "epoch-countmin",
}

// TestEnvelopeTagSeedsCoverUniversalCorpus proves envelopeTagSeeds
// honest in both directions: every entry names a universalTopologies
// spec that marshals to exactly that tag, and every tag the corpus
// emits is claimed by an entry — so the static ledger and the fuzz
// corpus cannot drift apart silently.
func TestEnvelopeTagSeedsCoverUniversalCorpus(t *testing.T) {
	tagByName := make(map[string]byte)
	seen := make(map[byte]bool)
	for _, tc := range universalTopologies() {
		s := MustBuild(tc.spec)
		ingestRoundTrip(s, roundTripItems[:1200])
		blob, err := Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(blob) < 6 {
			t.Fatalf("%s: envelope too short (%d bytes)", tc.name, len(blob))
		}
		tagByName[tc.name] = blob[5]
		seen[blob[5]] = true
	}
	for tag, name := range envelopeTagSeeds {
		got, ok := tagByName[name]
		if !ok {
			t.Errorf("envelopeTagSeeds[%d] names %q, which is not a universalTopologies entry", tag, name)
			continue
		}
		if got != tag {
			t.Errorf("envelopeTagSeeds[%d] names %q, but that topology marshals with tag %d", tag, name, got)
		}
	}
	for tag := range seen {
		if _, ok := envelopeTagSeeds[tag]; !ok {
			t.Errorf("the universal corpus emits tag %d, which envelopeTagSeeds does not claim", tag)
		}
	}
}

// Fuzz targets for the public decoders: corrupted or truncated sketch
// bytes must come back as an error — never a panic, and never an
// allocation disproportionate to the payload (the decoders length-check
// every declared geometry against the remaining bytes before allocating).
// The corpus is seeded with valid Marshal outputs of every serializable
// mode, so mutations explore near-valid payloads rather than random noise.

// fuzzSeedsCountMin marshals one CountMin per serializable configuration.
func fuzzSeedsCountMin(f *testing.F) {
	data := []uint64{1, 2, 3, 3, 3, 7, 1 << 40}
	for _, opt := range []Options{
		{Width: 64, Seed: 5},
		{Width: 64, Mode: ModeBaseline, Seed: 5},
		{Width: 64, CompactEncoding: true, Seed: 5},
		{Width: 64, Merge: MergeSum, Depth: 2, Seed: 5},
	} {
		cm := MustBuild(CountMinOf(opt)).(*CountMin)
		cm.IncrementBatch(data)
		blob, err := cm.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	cu := MustBuild(ConservativeOf(Options{Width: 64, Seed: 6})).(*CountMin)
	cu.IncrementBatch(data)
	blob, err := cu.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte("not a sketch"))
}

// FuzzUnmarshalCountMin: UnmarshalCountMin must reject arbitrary bytes
// with an error, and anything it accepts must be a live, bounded sketch.
func FuzzUnmarshalCountMin(f *testing.F) {
	fuzzSeedsCountMin(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cm, err := UnmarshalCountMin(data)
		if err != nil {
			return
		}
		// A decoded sketch's backing memory is bounded by the payload: the
		// decoder length-checks declared geometry against the bytes.
		if cm.MemoryBits() > 64*len(data)+1024 {
			t.Fatalf("decoded sketch claims %d bits from a %d-byte payload", cm.MemoryBits(), len(data))
		}
		// Only bytes Marshal writes decode, so they re-marshal to themselves.
		if again, err := cm.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-marshal differs from the payload (err %v)", err)
		}
		cm.Increment(1) // decoded sketches must be operational
		if cm.Query(1) == 0 {
			t.Fatal("decoded sketch dropped an update")
		}
		if _, err := cm.MarshalBinary(); err != nil {
			t.Fatalf("decoded sketch cannot re-marshal: %v", err)
		}
	})
}

// FuzzUnmarshalCountSketch is FuzzUnmarshalCountMin for the signed decoder.
func FuzzUnmarshalCountSketch(f *testing.F) {
	data := []uint64{1, 2, 3, 3, 3, 7, 1 << 40}
	for _, opt := range []Options{
		{Width: 64, Seed: 5},
		{Width: 64, Mode: ModeBaseline, Seed: 5},
		{Width: 64, CompactEncoding: true, Seed: 5},
		{Width: 64, Depth: 3, Seed: 5},
	} {
		cs := MustBuild(CountSketchOf(opt)).(*CountSketch)
		cs.UpdateBatch(data, -2)
		blob, err := cs.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("not a sketch"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := UnmarshalCountSketch(data)
		if err != nil {
			return
		}
		if cs.MemoryBits() > 64*len(data)+1024 {
			t.Fatalf("decoded sketch claims %d bits from a %d-byte payload", cs.MemoryBits(), len(data))
		}
		if again, err := cs.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-marshal differs from the payload (err %v)", err)
		}
		cs.Update(1, -1)
		_ = cs.Query(1)
		if _, err := cs.MarshalBinary(); err != nil {
			t.Fatalf("decoded sketch cannot re-marshal: %v", err)
		}
	})
}

// FuzzUnmarshalUniversal: the universal envelope decoder must reject
// arbitrary bytes with an error — never a panic, for every type tag —
// and anything it accepts must be a live topology whose backing memory is
// bounded by the payload length. The corpus seeds one canonical payload
// per topology (windowed ones mid-rotation), so mutations explore
// near-valid composite payloads: corrupted ring odometers, mismatched
// bucket geometry, truncated nested shard envelopes, hostile heap entries.
func FuzzUnmarshalUniversal(f *testing.F) {
	for _, tc := range universalTopologies() {
		s := MustBuild(tc.spec)
		ingestRoundTrip(s, roundTripItems[:1200])
		blob, err := Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte("not an envelope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Decoded backing memory is bounded by the payload: every declared
		// geometry is length-checked before allocation. The windowed types
		// report B+2 sketches (ring + two derived merges) for B marshaled
		// buckets, and a sharded windowed payload nests that per shard,
		// hence the factor-of-3 slack on the 64-bits-per-payload-byte
		// bound of the per-type fuzz targets.
		if s.MemoryBits() > 3*64*len(data)+4096 {
			t.Fatalf("decoded topology claims %d bits from a %d-byte payload", s.MemoryBits(), len(data))
		}
		// Decoded topologies must be operational: ingest, query, tick,
		// and re-marshal without panicking.
		s.Update(1, 1)
		s.UpdateBatch([]uint64{2, 3, 5, 8, 13}, 1)
		observe(t, s, roundTripItems)
		if tk, ok := s.(interface{ Tick() }); ok {
			tk.Tick()
		}
		if _, err := Marshal(s); err != nil {
			t.Fatalf("decoded topology cannot re-marshal: %v", err)
		}
	})
}

// FuzzParseSpec: the topology-expression parser must reject arbitrary
// strings with an error — never a panic or unbounded recursion — and any
// expression it accepts must normalize to a String form the parser maps to
// itself (the grammar's canonical fixed point). Specs are not Built here:
// syntactically valid expressions may declare resource bounds at the
// builders' limits (65536 shards of 65536-bucket windows), which is
// Build's job to price, not the parser's.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range universalTopologies() {
		f.Add(tc.spec.String())
	}
	f.Add("CountMin")
	f.Add(" sharded( 8 , windowed(4, 100, CMS) ) ")
	f.Add("univmon(0,0)")
	f.Add("filtered(tiered(cms))")
	f.Add("sharded(2,sharded(2,sharded(2,cms)))")
	f.Add("((((")
	f.Fuzz(func(t *testing.T, expr string) {
		opt := Options{Width: 64, Seed: 1}
		spec, err := ParseSpec(expr, opt)
		if err != nil {
			return
		}
		norm := spec.String()
		back, err := ParseSpec(norm, opt)
		if err != nil {
			t.Fatalf("normal form %q does not re-parse: %v", norm, err)
		}
		if got := back.String(); got != norm {
			t.Fatalf("String not a parser fixed point: %q -> %q", norm, got)
		}
	})
}

// FuzzKeyBytes pins the byte-key hash path (the stdin ingestion surface of
// salsatop) against panics on arbitrary input.
func FuzzKeyBytes(f *testing.F) {
	f.Add([]byte("10.0.0.1:443"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, key []byte) {
		if KeyBytes(key) != KeyBytes(key) {
			t.Fatal("KeyBytes not deterministic")
		}
	})
}
