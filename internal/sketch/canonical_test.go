package sketch

import (
	"bytes"
	"errors"
	"testing"

	"salsa/internal/core"
)

// TestDecodersRejectNonCanonicalPayloads: a payload MarshalBinary never
// writes must not decode, or it would re-marshal to other bytes. That is a
// CMS flag byte above 1, a Count Sketch flag byte other than 0, and bytes
// after the last row.
func TestDecodersRejectNonCanonicalPayloads(t *testing.T) {
	cms, err := NewCUS(2, 64, SalsaRow(8, core.MaxMerge, false), 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCountSketch(2, 64, SalsaSignRow(8, false), 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	flag := func(p []byte, f byte) []byte {
		p = bytes.Clone(p)
		p[5] = f
		return p
	}
	trailing := func(p []byte) []byte { return append(bytes.Clone(p), 0, 0) }
	for name, tc := range map[string]struct {
		payload []byte
		decode  func([]byte) error
	}{
		"cms flag 2":        {flag(cms, 2), func(b []byte) error { _, err := UnmarshalCMS(b); return err }},
		"cms trailing":      {trailing(cms), func(b []byte) error { _, err := UnmarshalCMS(b); return err }},
		"cs flag 1":         {flag(cs, 1), func(b []byte) error { _, err := UnmarshalCountSketch(b); return err }},
		"cs flag 2":         {flag(cs, 2), func(b []byte) error { _, err := UnmarshalCountSketch(b); return err }},
		"cs trailing bytes": {trailing(cs), func(b []byte) error { _, err := UnmarshalCountSketch(b); return err }},
	} {
		if err := tc.decode(tc.payload); !errors.Is(err, ErrBadSketchPayload) {
			t.Errorf("%s: err = %v, want ErrBadSketchPayload", name, err)
		}
	}
}
