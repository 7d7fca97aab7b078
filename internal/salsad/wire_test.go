package salsad

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"salsa"
	"salsa/internal/stream"
)

// splitBytes is the reference split: byte at a time, no word tricks.
func splitBytes(env []byte) (runs, lits []byte) {
	i := 0
	for {
		j := i
		for j < len(env) && env[j] == 0 {
			j++
		}
		runs = binary.AppendUvarint(runs, uint64(j-i))
		if j == len(env) {
			return runs, lits
		}
		// The literals end at minZeroRun zeros, or at zeros that end env.
		i = j
		for i < len(env) {
			end := i
			for end < len(env) && env[end] == 0 {
				end++
			}
			if end > i && (end-i >= minZeroRun || end == len(env)) {
				break
			}
			if end == i {
				end++
			}
			i = end
		}
		lits = append(lits, env[j:i]...)
		runs = binary.AppendUvarint(runs, uint64(i-j))
	}
}

// huffmanSections codes sections the way Encode does: each section in
// blocks of its own, in one HuffmanOnly stream from a new writer.
func huffmanSections(t testing.TB, sections ...[]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	fw, err := flate.NewWriter(&out, flate.HuffmanOnly)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sections {
		if i > 0 {
			if err := fw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fw.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// frameOf is a delta frame whose envelope fields are set by hand: the
// declared envelope and run section lengths, and the coded bytes.
func frameOf(t testing.TB, rawLen, runsLen int, coded []byte) []byte {
	t.Helper()
	p := &Push{Agent: "a", Gen: 1, Seq: 1, Envelope: []byte{1}}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte{}, enc[:p.headerLen()-12]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rawLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(runsLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(coded)))
	return append(buf, coded...)
}

// codecRoundTrip encodes env as a push frame and checks the sections
// against splitBytes, the coded length against maxCodedLen, and the
// decoded envelope against env.
func codecRoundTrip(t *testing.T, env []byte) {
	t.Helper()
	p := &Push{Agent: "a", Gen: 1, Seq: 1, Envelope: env}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	runs, lits := splitBytes(env)
	if got, want := enc[p.headerLen():], huffmanSections(t, runs, lits); !bytes.Equal(got, want) {
		t.Fatalf("coded sections differ from the reference split's (%d vs %d bytes)", len(got), len(want))
	}
	if len(runs) > maxRunsLen(len(env)) || len(runs)+len(lits) > maxSectionsLen(len(env)) {
		t.Fatalf("%d-byte envelope: sections of %d+%d bytes exceed their bounds", len(env), len(runs), len(lits))
	}
	if n := len(enc) - p.headerLen(); n > maxCodedLen(len(env)) {
		t.Fatalf("%d-byte envelope coded to %d bytes, over the bound %d", len(env), n, maxCodedLen(len(env)))
	}
	q, err := DecodePush(enc, len(env))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Envelope, env) {
		t.Fatalf("envelope does not round-trip:\n got %x\nwant %x", q.Envelope, env)
	}
}

// zeroRuns places each run of zeros between two nonzero bytes.
func zeroRuns(lens ...int) []byte {
	env := []byte{0x80}
	for _, n := range lens {
		env = append(env, make([]byte, n)...)
		env = append(env, 0x7f, 0x01)
	}
	return env
}

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	noZeros := make([]byte, 203)
	for i := range noZeros {
		noZeros[i] = byte(i%255 + 1)
	}
	isolated := make([]byte, 61)
	for i := range isolated {
		if i%2 == 0 {
			isolated[i] = byte(0x81 + i)
		}
	}
	cases := map[string][]byte{
		"one byte":         {0x80},
		"one zero":         {0},
		"all zeros":        make([]byte, 4096+5),
		"no zeros":         noZeros,
		"isolated zeros":   isolated,
		"zero runs":        zeroRuns(1, 2, 7, 8, 9),
		"literal zeros":    zeroRuns(3, 4, 3, 5, 1),
		"zero runs 8k":     zeroRuns(8, 16, 24, 129, 16385),
		"leading zeros":    append(make([]byte, 9), 1, 2, 3),
		"trailing zeros":   append([]byte{1, 2, 3}, make([]byte, 9)...),
		"both ends zero":   append(append(make([]byte, 7), 0xff, 0x80, 0x01), make([]byte, 7)...),
		"length 13":        {1, 0, 2, 2, 0, 0, 3, 3, 3, 0, 0, 0, 4},
		"length 15":        {0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1},
		"long literal run": bytes.Repeat([]byte{0x80, 0x01, 0xff}, 70000),
		"sketch envelope":  envelopeFor(t, 1, 2, 2, 3, 3, 3),
	}
	for name, env := range cases {
		t.Run(name, func(t *testing.T) { codecRoundTrip(t, env) })
	}
}

// TestEnvelopeCodecEveryPattern round-trips every zero/nonzero pattern of
// up to 12 bytes, so every alignment of a run against the eight-byte words
// split reads is covered. Nonzero bytes cycle through values whose low or
// high bit tests a word's zero-byte mask.
func TestEnvelopeCodecEveryPattern(t *testing.T) {
	nonzero := []byte{0x01, 0x80, 0xff, 0x7f, 0x81}
	for n := 1; n <= 12; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			env := make([]byte, n)
			for i := range env {
				if mask>>i&1 != 0 {
					env[i] = nonzero[(i+mask)%len(nonzero)]
				}
			}
			codecRoundTrip(t, env)
		}
	}
}

// TestDecodeRejectsBadSections checks that DecodePush answers ErrBadFrame,
// never a panic or a wrong envelope, for sections that do not describe
// exactly the declared envelope, and for a frame of the previous wire
// version.
func TestDecodeRejectsBadSections(t *testing.T) {
	lits := []byte{9, 9, 9}
	coded := func(runs, lits []byte) []byte { return huffmanSections(t, runs, lits) }
	valid := coded([]byte{1, 3, 1}, lits)
	if p, err := DecodePush(frameOf(t, 5, 3, valid), 0); err != nil || !bytes.Equal(p.Envelope, []byte{0, 9, 9, 9, 0}) {
		t.Fatalf("the hand-built frame does not decode: %v", err)
	}
	v1 := frameOf(t, 5, 3, valid)
	v1[4] = 1
	heartbeat := frameOf(t, 0, 1, nil)
	heartbeat[5] = FlagHeartbeat
	// Runs that tile the envelope and a stream that inflates to the
	// sections, each longer than its bound allows: empty flushes pad the
	// stream.
	padded := huffmanSections(t, append([][]byte{{1, 3, 1}}, append(make([][]byte, 10), lits)...)...)
	if len(padded) <= maxCodedLen(5) {
		t.Fatalf("padded stream of %d bytes is within the bound", len(padded))
	}
	cases := map[string][]byte{
		"runs overrun":           frameOf(t, 4, 3, valid),
		"runs underfill":         frameOf(t, 6, 3, valid),
		"zero count overruns":    frameOf(t, 4, 1, coded([]byte{5}, nil)),
		"no final zero count":    frameOf(t, 4, 2, coded([]byte{1, 3}, lits)),
		"empty run section":      frameOf(t, 3, 0, coded(nil, lits)),
		"truncated varint":       frameOf(t, 200, 3, coded([]byte{1, 0x80, 0x81}, nil)),
		"overlong varint":        frameOf(t, 20, 11, coded(bytes.Repeat([]byte{0xff}, 11), nil)),
		"run section over bound": frameOf(t, 2, 7, coded([]byte{0, 0, 0, 0, 0, 0, 2}, nil)),
		"coded over bound":       frameOf(t, 5, 3, padded),
		"literals short":         frameOf(t, 5, 3, coded([]byte{1, 3, 1}, lits[:2])),
		"literals long":          frameOf(t, 5, 3, coded([]byte{1, 3, 1}, append(lits, 9))),
		"runs short":             frameOf(t, 5, 4, valid),
		"bytes after the stream": frameOf(t, 5, 3, append(valid, 0)),
		"heartbeat with runs":    heartbeat,
		"not deflate":            frameOf(t, 5, 3, []byte{0xff, 0xff, 0xff}),
		"version 1":              v1,
	}
	for name, data := range cases {
		if _, err := DecodePush(data, 0); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
}

// worstCaseEnvelopes returns the envelopes that push the coded section to
// its bound at n bytes: random nonzero bytes, which no entropy coder can
// shrink, and random nonzero bytes alternating with zeros, which maximise
// the run section.
func worstCaseEnvelopes(n int) map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	dense := make([]byte, n)
	alternating := make([]byte, n)
	for i := range dense {
		dense[i] = byte(1 + rng.Intn(255))
		if i%2 == 0 {
			alternating[i] = byte(1 + rng.Intn(255))
		}
	}
	return map[string][]byte{"incompressible": dense, "alternating": alternating}
}

// TestMaxFrameBytesCoversWorstCase encodes the worst-case envelopes at the
// default cap, with the longest agent id and a full candidate list, and
// checks that the frames fit the body size the HTTP handler accepts.
func TestMaxFrameBytesCoversWorstCase(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	for name, env := range worstCaseEnvelopes(agg.MaxEnvelopeBytes()) {
		p := &Push{
			Agent:      strings.Repeat("a", MaxAgentIDLen),
			Gen:        1,
			Seq:        1,
			Flags:      FlagRelay,
			Depth:      1,
			Candidates: make([]uint64, MaxPushCandidates),
			Envelope:   env,
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(enc)) > agg.MaxFrameBytes() {
			t.Errorf("%s: frame of %d bytes exceeds MaxFrameBytes %d", name, len(enc), agg.MaxFrameBytes())
		}
		if _, err := DecodePush(enc, agg.MaxEnvelopeBytes()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzEnvelopeCodec checks that any byte string round-trips through a push
// frame exactly, and that its coded length stays within maxCodedLen, the
// bound MaxFrameBytes is sized from.
func FuzzEnvelopeCodec(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(zeroRuns(1, 2, 7, 8, 9))
	f.Add(envelopeFor(f, 1, 2, 2, 3, 3, 3))
	f.Fuzz(func(t *testing.T, env []byte) {
		if len(env) == 0 {
			return // only heartbeats carry no envelope
		}
		p := &Push{Agent: "f", Gen: 1, Seq: 1, Envelope: env}
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(enc) - p.headerLen(); n > maxCodedLen(len(env)) {
			t.Fatalf("%d-byte envelope coded to %d bytes, over the bound %d", len(env), n, maxCodedLen(len(env)))
		}
		q, err := DecodePush(enc, len(env))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(q.Envelope, env) {
			t.Fatal("envelope does not round-trip")
		}
	})
}

// BenchmarkFrameCodec times Encode and DecodePush on two envelopes: a
// sparse one shaped like a fanin-mixed delta (1024 items into a
// CMS-SALSA core with 2^14 counters per row) and a dense one whose
// counters have merged to 16 bits. frame_B reports the frame's length.
func BenchmarkFrameCodec(b *testing.B) {
	items := stream.Univ2.Generate(1<<16, 7)
	sparse := salsa.MustBuild(faninSpec())
	sparse.UpdateBatch(items[:1024], 1)
	dense := salsa.MustBuild(faninSpec())
	dense.UpdateBatch(items, 300)
	for _, c := range []struct {
		name   string
		sketch salsa.Sketch
	}{{"sparse", sparse}, {"dense", dense}} {
		p := &Push{Agent: "edge-00", Gen: 1, Seq: 1, Candidates: faninCandidates, Envelope: marshalState(b, c.sketch)}
		enc, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p.Envelope)))
			for b.Loop() {
				if _, err := p.Encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc)), "frame_B")
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p.Envelope)))
			for b.Loop() {
				if _, err := DecodePush(enc, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc)), "frame_B")
		})
	}
}
