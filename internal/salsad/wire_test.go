package salsad

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	// Byte k appears 1+2048>>(k/8) times, so the rarest bytes get Huffman
	// codes longer than the inflater's table.
	var skewed []byte
	for k := 1; k < 256; k++ {
		skewed = append(skewed, bytes.Repeat([]byte{byte(k)}, 1+2048>>(k/8))...)
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
		"long codes":       skewed,
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
// exactly the declared envelope, for deflate streams the inflater does not
// accept, and for a frame of the previous wire version. The same sections
// in a fixed-Huffman, a stored or a hand-built dynamic block decode.
func TestDecodeRejectsBadSections(t *testing.T) {
	runs, lits := []byte{1, 3, 1}, []byte{9, 9, 9}
	sections := slices.Concat(runs, lits)
	coded := func(runs, lits []byte) []byte { return huffmanSections(t, runs, lits) }
	valid := coded(runs, lits)
	var fixed, stored bitWriter
	fixed.fixed(true, sections)
	stored.stored(true, sections, ^uint16(len(sections)))
	accepted := map[string][]byte{
		"HuffmanOnly sections":     valid,
		"fixed-Huffman block":      fixed.bytes(),
		"stored block":             stored.bytes(),
		"hand-built dynamic block": dynamicBlock(sectionLens(), []uint8{1}, sections),
	}
	for name, stream := range accepted {
		if p, err := DecodePush(frameOf(t, 5, 3, stream), 0); err != nil || !bytes.Equal(p.Envelope, []byte{0, 9, 9, 9, 0}) {
			t.Fatalf("%s: the hand-built frame does not decode: %v", name, err)
		}
	}
	v1 := frameOf(t, 5, 3, valid)
	v1[4] = 1
	heartbeat := frameOf(t, 0, 1, nil)
	heartbeat[5] = FlagHeartbeat
	var badNLEN, type3, backref bitWriter
	badNLEN.stored(true, sections, uint16(len(sections)))
	type3.header(true, 3)
	// The literals 9 9 9 9 as a 9 and a copy of length 3 (symbol 257) at
	// distance 1 (distance code 0), which compress/flate would accept.
	backref.header(true, 1)
	for _, c := range []byte{1, 4, 1, 9} {
		backref.fixedSym(int(c))
	}
	backref.fixedSym(257)
	backref.code(0, 5)
	backref.fixedSym(endOfBlock)
	incomplete, noEOB := sectionLens(), sectionLens()
	incomplete[9] = 3
	noEOB[9], noEOB[endOfBlock] = 1, 0
	// Three 1-bit codes, for 1, 9 and the end of block, over-subscribe
	// the code; a decoder that took them would read the run section {9}.
	oversubscribed := make([]uint8, 257)
	oversubscribed[1], oversubscribed[9], oversubscribed[endOfBlock] = 1, 1, 1
	var overClen [19]uint8
	for i := range overClen {
		overClen[i] = 4
	}
	// The sections {3, 4, 3} and {9, 9, 9, 9}, whose first three code
	// lengths, all zero, come as a repeat of a previous length that does
	// not exist.
	lens34 := make([]uint8, 257)
	lens34[3], lens34[4], lens34[9], lens34[endOfBlock] = 2, 2, 2, 2
	rep16 := dynamicBlockOps(lens34, 1, append([]clenOp{{16, 0}}, lensOps(append(lens34[3:], 1))...),
		[]byte{3, 4, 3, 9, 9, 9, 9})
	// A length symbol with no distance code after it: read as a literal,
	// it would end the literals.
	var length bitWriter
	length.header(true, 1)
	for _, c := range []byte{1, 3, 1, 9, 9} {
		length.fixedSym(int(c))
	}
	length.fixedSym(257)
	length.fixedSym(endOfBlock)
	// Runs that tile the envelope and a stream that inflates to the
	// sections, each longer than its bound allows: empty flushes pad the
	// stream.
	padded := huffmanSections(t, append([][]byte{{1, 3, 1}}, append(make([][]byte, 10), lits)...)...)
	if len(padded) <= maxCodedLen(5) {
		t.Fatalf("padded stream of %d bytes is within the bound", len(padded))
	}
	cases := map[string][]byte{
		"runs overrun":                     frameOf(t, 4, 3, valid),
		"runs underfill":                   frameOf(t, 6, 3, valid),
		"zero count overruns":              frameOf(t, 4, 1, coded([]byte{5}, nil)),
		"no final zero count":              frameOf(t, 4, 2, coded([]byte{1, 3}, lits)),
		"empty run section":                frameOf(t, 3, 0, coded(nil, lits)),
		"truncated varint":                 frameOf(t, 200, 3, coded([]byte{1, 0x80, 0x81}, nil)),
		"overlong varint":                  frameOf(t, 20, 11, coded(bytes.Repeat([]byte{0xff}, 11), nil)),
		"run section over bound":           frameOf(t, 2, 7, coded([]byte{0, 0, 0, 0, 0, 0, 2}, nil)),
		"coded over bound":                 frameOf(t, 5, 3, padded),
		"literals short":                   frameOf(t, 5, 3, coded([]byte{1, 3, 1}, lits[:2])),
		"literals long":                    frameOf(t, 5, 3, coded([]byte{1, 3, 1}, append(lits, 9))),
		"runs short":                       frameOf(t, 5, 4, valid),
		"bytes after the stream":           frameOf(t, 5, 3, append(valid, 0)),
		"heartbeat with runs":              heartbeat,
		"not deflate":                      frameOf(t, 5, 3, []byte{0xff, 0xff, 0xff}),
		"version 1":                        v1,
		"block after the literals":         frameOf(t, 5, 3, huffmanSections(t, runs, lits, []byte{9})),
		"stored NLEN not ^LEN":             frameOf(t, 5, 3, badNLEN.bytes()),
		"block type 3":                     frameOf(t, 5, 3, type3.bytes()),
		"back-reference":                   frameOf(t, 6, 3, backref.bytes()),
		"length symbol":                    frameOf(t, 5, 3, length.bytes()),
		"literal code over-subscribed":     frameOf(t, 9, 1, dynamicBlock(oversubscribed, []uint8{1}, []byte{9})),
		"literal code incomplete":          frameOf(t, 5, 3, dynamicBlock(incomplete, []uint8{1}, sections)),
		"distance code incomplete":         frameOf(t, 5, 3, dynamicBlock(sectionLens(), []uint8{2}, sections)),
		"no end-of-block code":             frameOf(t, 5, 3, dynamicBlock(noEOB, []uint8{1}, sections)),
		"HLIT over 286":                    frameOf(t, 5, 3, dynamicBlock(slices.Concat(sectionLens(), make([]uint8, 30)), []uint8{1}, sections)),
		"HDIST over 30":                    frameOf(t, 5, 3, dynamicBlock(sectionLens(), append([]uint8{1}, make([]uint8, 30)...), sections)),
		"code-length code over-subscribed": frameOf(t, 5, 3, dynamicHeader(257, 1, overClen, lensOps(sectionLens()))),
		"repeat with no previous length":   frameOf(t, 10, 3, rep16),
		"repeat past the lengths":          frameOf(t, 5, 3, dynamicHeader(257, 1, clenLens, append(lensOps(sectionLens()), clenOp{18, 0}))),
	}
	// Every proper prefix of an accepted stream is truncated.
	for name, stream := range accepted {
		for n := range len(stream) {
			cases[fmt.Sprintf("%s truncated to %d bytes", name, n)] = frameOf(t, 5, 3, stream[:n])
		}
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
// frame exactly, that its coded sections are those a new compress/flate
// writer at HuffmanOnly writes for splitBytes' sections, and that its
// coded length stays within maxCodedLen, the bound MaxFrameBytes is sized
// from.
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
		if runs, lits := splitBytes(env); !bytes.Equal(enc[p.headerLen():], huffmanSections(t, runs, lits)) {
			t.Fatal("coded sections differ from compress/flate's")
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

// TestDecodePushIntoReusedBuffer decodes a large frame and then a smaller
// one into one buffer, cleared after each as the push handler clears it,
// and requires DecodePush's envelope both times, from the same storage.
// A frame rejected after its runs are read leaves the buffer zero.
func TestDecodePushIntoReusedBuffer(t *testing.T) {
	large := deltaEnvelope(t, stream.Univ2, 1<<18, 65_536, 1024)
	small := envelopeFor(t, 1, 2, 2, 3, 3, 3)
	if len(small) >= len(large) {
		t.Fatalf("envelopes of %d and %d bytes", len(large), len(small))
	}
	buf := new([]byte)
	var first *byte
	for _, env := range [][]byte{large, small} {
		enc, err := (&Push{Agent: "a", Gen: 1, Seq: 1, Envelope: env}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodePush(enc, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := decodePush(enc, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Envelope, want.Envelope) || !bytes.Equal(p.Envelope, env) {
			t.Fatalf("%d-byte envelope: decoding into the buffer differs from DecodePush", len(env))
		}
		if first == nil {
			first = &(*buf)[0]
		} else if &(*buf)[0] != first {
			t.Fatal("the smaller envelope was not decoded into the buffer")
		}
		clear(*buf)
	}
	// The runs tile the envelope but the literals end one byte short.
	enc := frameOf(t, 5, 3, huffmanSections(t, []byte{1, 3, 1}, []byte{9, 9}))
	if _, err := decodePush(enc, 0, buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short literals: %v", err)
	}
	if slices.ContainsFunc((*buf)[:cap(*buf)], func(b byte) bool { return b != 0 }) {
		t.Fatal("a rejected frame left bytes in the buffer")
	}
}

// deltaEnvelope is the envelope an agent cuts after a prefill of items
// and n more: the sketch of all of them minus the sketch of the prefill.
// The items come from ds over the universe of a traceLen-item trace, as in
// the pipeline benchmark's workloads.
func deltaEnvelope(tb testing.TB, ds stream.Dataset, traceLen, prefill, n int) []byte {
	tb.Helper()
	items := stream.Zipf(prefill+n, ds.Universe(traceLen), ds.Alpha, 7)
	shadow := salsa.MustBuild(faninSpec())
	shadow.UpdateBatch(items[:prefill], 1)
	delta := salsa.MustBuild(faninSpec())
	delta.UpdateBatch(items, 1)
	if err := salsa.SubtractInto(delta, shadow); err != nil {
		tb.Fatal(err)
	}
	return marshalState(tb, delta)
}

// BenchmarkFrameCodec times Encode and DecodePush on four envelopes of a
// CMS-SALSA core with 2^14 counters per row: a fresh sketch holding 1024
// items (sparse), one whose counters have merged to 16 bits (dense), and
// two deltas cut the way an agent cuts them, at the pipeline benchmark's
// fanin-mixed shape (a 1024-item delta after 65,536 items) and
// edge-ingest shape (100,000 items after 100,000). frame_B reports the
// frame's length.
func BenchmarkFrameCodec(b *testing.B) {
	items := stream.Univ2.Generate(1<<16, 7)
	sparse := salsa.MustBuild(faninSpec())
	sparse.UpdateBatch(items[:1024], 1)
	dense := salsa.MustBuild(faninSpec())
	dense.UpdateBatch(items, 300)
	for _, c := range []struct {
		name string
		env  []byte
	}{
		{"sparse", marshalState(b, sparse)},
		{"dense", marshalState(b, dense)},
		{"fanin-delta", deltaEnvelope(b, stream.Univ2, 1<<18, 65_536, 1024)},
		{"edge-delta", deltaEnvelope(b, stream.NY18, 1<<22, 100_000, 100_000)},
	} {
		p := &Push{Agent: "edge-00", Gen: 1, Seq: 1, Candidates: faninCandidates, Envelope: c.env}
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
