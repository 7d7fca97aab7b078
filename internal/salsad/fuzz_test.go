package salsad

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// fuzzMaxEnvelope caps decoded envelopes in FuzzDecodePush: room for the
// seeds, small enough that a hostile declared length fails fast as a
// *TooLargeError.
const fuzzMaxEnvelope = 1 << 20

// FuzzDecodePush feeds arbitrary bytes to the frame decoder. Every input
// decodes or fails with ErrBadFrame or a *TooLargeError, never a panic; an
// accepted frame re-encodes (see checkReencode); and a fixed valid frame
// still decodes to its envelope after every input, which shows that a
// pooled decoder abandoned mid-stream leaks nothing into the next decode.
func FuzzDecodePush(f *testing.F) {
	env := envelopeFor(f, 1, 2, 2, 3, 3, 3)
	seeds := []*Push{
		{Agent: "edge-1", Gen: 1, Seq: 2, Cursor: 40, Candidates: []uint64{3, 2}, Envelope: env},
		{Agent: "edge-1", Gen: 2, Seq: 1, Cursor: 90, Flags: FlagFull, Envelope: env},
		{Agent: "relay-0", Gen: 1, Seq: 3, Cursor: 7, Flags: FlagRelay, Depth: 2, Candidates: []uint64{3}, Envelope: env},
		{Agent: "edge-1", Gen: 1, Seq: 2, Cursor: 41, Flags: FlagHeartbeat},
	}
	for _, p := range seeds {
		enc, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		// Frames Encode wrote re-encode to exactly their own bytes.
		q, err := DecodePush(enc, fuzzMaxEnvelope)
		if err != nil {
			f.Fatal(err)
		}
		if again, err := q.Encode(); err != nil || !bytes.Equal(again, enc) {
			f.Fatalf("seed %s seq %d does not re-encode to its bytes: %v", p.Agent, p.Seq, err)
		}
		f.Add(enc)
	}
	fixed, err := seeds[0].Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePush(data, fuzzMaxEnvelope)
		if err != nil {
			var tle *TooLargeError
			if !errors.Is(err, ErrBadFrame) && !errors.As(err, &tle) {
				t.Fatalf("decode error is neither ErrBadFrame nor *TooLargeError: %v", err)
			}
		} else {
			checkReencode(t, p, data)
		}
		got, err := DecodePush(fixed, fuzzMaxEnvelope)
		if err != nil || !bytes.Equal(got.Envelope, env) {
			t.Fatalf("a valid frame no longer decodes to its envelope after this input: %v", err)
		}
	})
}

// checkReencode checks what an accepted frame's re-encoding keeps.
// Everything before the section lengths is fixed by the decoded fields,
// so it matches the input byte for byte. The sections need not: the
// decoder accepts any runs that cover the declared envelope and any
// literal-only deflate blocks that inflate to the sections, while Encode
// writes the runs split chooses, coded with the tables HuffmanOnly
// builds. So the re-encoding must decode to the same frame and re-encode
// to itself.
func checkReencode(t *testing.T, p *Push, data []byte) {
	t.Helper()
	enc, err := p.Encode()
	if err != nil {
		t.Fatalf("accepted frame does not encode: %v", err)
	}
	if n := p.headerLen() - 8; !bytes.Equal(enc[:n], data[:n]) {
		t.Fatal("re-encoded header differs from the accepted one")
	}
	q, err := DecodePush(enc, fuzzMaxEnvelope)
	if err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
	if q.Agent != p.Agent || q.Gen != p.Gen || q.Seq != p.Seq || q.Cursor != p.Cursor ||
		q.Flags != p.Flags || q.Depth != p.Depth ||
		!slices.Equal(q.Candidates, p.Candidates) || !bytes.Equal(q.Envelope, p.Envelope) {
		t.Fatal("re-encoded frame decodes to a different frame")
	}
	if again, err := q.Encode(); err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not a fixed point: %v", err)
	}
}
