package sketch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"salsa/internal/core"
)

// The sketch payload, pinned by hand: magic 0x5a15a100, kind byte (10 for
// CMS, 11 for Count Sketch), flag byte (the CMS conservative flag), depth d
// as a uint64, the seeds (d for CMS, d index then d sign seeds for Count
// Sketch), then per row a kind byte (CMS: 1 Fixed, 2 SALSA, 3 Tango; Count
// Sketch: 1 FixedSign, 2 SalsaSign) and a uint64-length-prefixed core
// block.

// payloadRow is one row of a hand-built payload.
type payloadRow struct {
	kind  byte
	block []byte
}

// handPayload assembles a sketch payload from its parts.
func handPayload(kind, flag byte, depth uint64, seeds []uint64, rows ...payloadRow) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x5a15a100)
	buf = append(buf, kind, flag)
	buf = binary.LittleEndian.AppendUint64(buf, depth)
	for _, s := range seeds {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	for _, r := range rows {
		buf = append(buf, r.kind)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.block)))
		buf = append(buf, r.block...)
	}
	return buf
}

// rowBlock is the core payload of one row.
func rowBlock(t *testing.T, row interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := row.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// payloadCase is one hand-built payload and whether its decoder accepts it.
type payloadCase struct {
	name    string
	cs      bool // decode with UnmarshalCountSketch, else UnmarshalCMS
	payload []byte
	accept  bool
}

func payloadCases(t *testing.T) []payloadCase {
	fixed := rowBlock(t, core.NewFixed(64, 32))
	salsa := rowBlock(t, core.NewSalsa(64, 8, core.MaxMerge, false))
	tango := rowBlock(t, core.NewTango(64, 8, core.MaxMerge))
	fixedSign := rowBlock(t, core.NewFixedSign(64, 32))
	salsaSign := rowBlock(t, core.NewSalsaSign(64, 8, false))
	compactSign := rowBlock(t, core.NewSalsaSign(64, 8, true))
	wide := rowBlock(t, core.NewFixed(128, 32))
	odd := rowBlock(t, core.NewFixed(96, 32))
	wideSign := rowBlock(t, core.NewFixedSign(128, 32))
	oddSign := rowBlock(t, core.NewFixedSign(96, 32))

	seeds2 := []uint64{11, 12}
	seeds4 := []uint64{21, 22, 23, 24}
	cms := func(flag byte, rows ...payloadRow) []byte { return handPayload(10, flag, 2, seeds2, rows...) }
	cs := func(rows ...payloadRow) []byte { return handPayload(11, 0, 2, seeds4, rows...) }
	fx, sa, ta := payloadRow{1, fixed}, payloadRow{2, salsa}, payloadRow{3, tango}
	fs, ss := payloadRow{1, fixedSign}, payloadRow{2, salsaSign}

	goodCMS, goodCS := cms(0, fx, fx), cs(fs, fs)
	badMagic := func(p []byte) []byte {
		p = bytes.Clone(p)
		p[0] ^= 0xff
		return p
	}
	const header = 4 + 1 + 1 + 8
	lastRow := func(p []byte, block []byte) int { return len(p) - len(block) - 9 }

	return []payloadCase{
		{"cms/fixed", false, goodCMS, true},
		{"cms/salsa", false, cms(0, sa, sa), true},
		{"cms/tango", false, cms(0, ta, ta), true},
		{"cms/conservative", false, cms(1, sa, sa), true},
		{"cms/mixed fixed and salsa", false, cms(0, fx, sa), true},
		{"cms/mixed salsa and tango", false, cms(1, sa, ta), true},
		{"cms/one row", false, handPayload(10, 0, 1, seeds2[:1], fx), true},
		{"cms/wrong magic", false, badMagic(goodCMS), false},
		{"cms/count sketch payload", false, goodCS, false},
		{"cms/kind 12", false, handPayload(12, 0, 2, seeds2, fx, fx), false},
		{"cms/empty", false, nil, false},
		{"cms/truncated header", false, goodCMS[:header-1], false},
		{"cms/truncated seeds", false, goodCMS[:header+8+3], false},
		{"cms/no row kind", false, goodCMS[:header+16], false},
		{"cms/truncated second row kind", false, goodCMS[:lastRow(goodCMS, fixed)], false},
		{"cms/truncated row length", false, goodCMS[:header+16+1+5], false},
		{"cms/truncated row block", false, goodCMS[:len(goodCMS)-1], false},
		{"cms/depth 0", false, handPayload(10, 0, 0, nil), false},
		{"cms/depth 0 with rows", false, handPayload(10, 0, 0, seeds2, fx, fx), false},
		{"cms/depth 1025", false, handPayload(10, 0, 1025, seeds2, fx, fx), false},
		{"cms/depth above the rows", false, handPayload(10, 0, 3, []uint64{1, 2, 3}, fx, fx), false},
		{"cms/unknown row kind 4", false, cms(0, fx, payloadRow{4, fixed}), false},
		{"cms/unknown row kind 0", false, cms(0, payloadRow{0, fixed}, fx), false},
		{"cms/salsa kind over a fixed block", false, cms(0, fx, payloadRow{2, fixed}), false},
		{"cms/fixed kind over a signed block", false, cms(0, payloadRow{1, fixedSign}, fx), false},
		{"cms/truncated core block", false, cms(0, fx, payloadRow{1, fixed[:len(fixed)-8]}), false},
		{"cms/unequal widths", false, cms(0, fx, payloadRow{1, wide}), false},
		{"cms/non-power-of-two width", false, cms(0, payloadRow{1, odd}, payloadRow{1, odd}), false},

		{"cs/fixedsign", true, goodCS, true},
		{"cs/salsasign", true, cs(ss, ss), true},
		{"cs/compact salsasign", true, cs(payloadRow{2, compactSign}, payloadRow{2, compactSign}), true},
		{"cs/mixed fixedsign and salsasign", true, cs(fs, ss), true},
		{"cs/one row", true, handPayload(11, 0, 1, seeds4[:2], ss), true},
		{"cs/wrong magic", true, badMagic(goodCS), false},
		{"cs/cms payload", true, goodCMS, false},
		{"cs/empty", true, nil, false},
		{"cs/truncated header", true, goodCS[:header-1], false},
		{"cs/truncated index seeds", true, goodCS[:header+8+3], false},
		{"cs/truncated sign seeds", true, goodCS[:header+24+3], false},
		{"cs/no row kind", true, goodCS[:header+32], false},
		{"cs/truncated second row kind", true, goodCS[:lastRow(goodCS, fixedSign)], false},
		{"cs/truncated row length", true, goodCS[:header+32+1+5], false},
		{"cs/truncated row block", true, goodCS[:len(goodCS)-1], false},
		{"cs/depth 0", true, handPayload(11, 0, 0, nil), false},
		{"cs/depth 1025", true, handPayload(11, 0, 1025, seeds4, fs, fs), false},
		{"cs/depth above the rows", true, handPayload(11, 0, 3, []uint64{1, 2, 3, 4, 5, 6}, fs, fs), false},
		{"cs/unknown row kind 3", true, cs(fs, payloadRow{3, tango}), false},
		{"cs/unknown row kind 0", true, cs(payloadRow{0, fixedSign}, fs), false},
		{"cs/fixedsign kind over a fixed block", true, cs(fs, payloadRow{1, fixed}), false},
		{"cs/salsasign kind over a salsa block", true, cs(payloadRow{2, salsa}, ss), false},
		{"cs/truncated core block", true, cs(fs, payloadRow{1, fixedSign[:len(fixedSign)-8]}), false},
		{"cs/unequal widths", true, cs(fs, payloadRow{1, wideSign}), false},
		{"cs/non-power-of-two width", true, cs(payloadRow{1, oddSign}, payloadRow{1, oddSign}), false},
	}
}

// TestSketchPayloadTable pins which hand-built payloads UnmarshalCMS and
// UnmarshalCountSketch accept, and that every accepted one re-marshals to
// its own bytes and runs.
func TestSketchPayloadTable(t *testing.T) {
	for _, tc := range payloadCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var (
				remarshal func() ([]byte, error)
				run       func()
				err       error
			)
			if tc.cs {
				var c *CountSketch
				if c, err = UnmarshalCountSketch(tc.payload); err == nil {
					remarshal, run = c.MarshalBinary, func() { c.Update(7, -3); c.Query(7) }
				}
			} else {
				var c *CMS
				if c, err = UnmarshalCMS(tc.payload); err == nil {
					remarshal, run = c.MarshalBinary, func() { c.Update(7, 3); c.Query(7) }
				}
			}
			if accepted := err == nil; accepted != tc.accept {
				t.Fatalf("accepted = %v (err %v), want %v", accepted, err, tc.accept)
			}
			if !tc.accept {
				return
			}
			again, err := remarshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, tc.payload) {
				t.Fatalf("re-marshal differs: %d bytes, payload %d", len(again), len(tc.payload))
			}
			run()
		})
	}
}

// reseeded returns payload with seed word i flipped in one bit.
func reseeded(payload []byte, i int) []byte {
	p := bytes.Clone(payload)
	p[14+8*i] ^= 1
	return p
}

// TestCMSCompatibleWithPairs pins what CompatibleWith rejects: a pair that
// differs in depth, width, update rule, a row's seed, a row's type or a
// row's geometry, checked both ways round.
func TestCMSCompatibleWithPairs(t *testing.T) {
	base := NewCMS(2, 64, FixedRow(32), 1)
	decode := func(p []byte) *CMS {
		c, err := UnmarshalCMS(p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	payload, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{binary.LittleEndian.Uint64(payload[14:]), binary.LittleEndian.Uint64(payload[22:])}
	mixed := decode(handPayload(10, 0, 2, seeds, payloadRow{1, rowBlock(t, core.NewFixed(64, 32))},
		payloadRow{2, rowBlock(t, core.NewSalsa(64, 8, core.MaxMerge, false))}))
	if err := base.CompatibleWith(NewCMS(2, 64, FixedRow(32), 1)); err != nil {
		t.Fatalf("same configuration: %v", err)
	}
	if err := base.CompatibleWith(decode(payload)); err != nil {
		t.Fatalf("decoded copy: %v", err)
	}
	salsa := NewCMS(2, 64, SalsaRow(8, core.MaxMerge, false), 1)
	for name, other := range map[string]*CMS{
		"depth":          NewCMS(3, 64, FixedRow(32), 1),
		"width":          NewCMS(2, 128, FixedRow(32), 1),
		"conservative":   NewCUS(2, 64, FixedRow(32), 1),
		"row-0 seed":     decode(reseeded(payload, 0)),
		"last seed":      decode(reseeded(payload, 1)),
		"all seeds":      NewCMS(2, 64, FixedRow(32), 2),
		"row type":       salsa,
		"row 1 type":     mixed,
		"row geometry":   NewCMS(2, 64, FixedRow(16), 1),
		"salsa policy":   NewCMS(2, 64, SalsaRow(8, core.SumMerge, false), 1),
		"salsa size":     NewCMS(2, 64, SalsaRow(16, core.MaxMerge, false), 1),
		"tango vs salsa": NewCMS(2, 64, TangoRow(8, core.MaxMerge), 1),
	} {
		ref := base
		if name == "salsa policy" || name == "salsa size" || name == "tango vs salsa" {
			ref = salsa
		}
		if err := ref.CompatibleWith(other); err == nil {
			t.Errorf("%s: CompatibleWith accepted", name)
		}
		if err := other.CompatibleWith(ref); err == nil {
			t.Errorf("%s: reversed CompatibleWith accepted", name)
		}
	}
}

// TestCountSketchCompatibleWithPairs is TestCMSCompatibleWithPairs for
// Count Sketch, whose seeds are d index seeds followed by d sign seeds.
func TestCountSketchCompatibleWithPairs(t *testing.T) {
	const d = 3
	base := NewCountSketch(d, 64, FixedSignRow(32), 1)
	payload, err := base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(p []byte) *CountSketch {
		c, err := UnmarshalCountSketch(p)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := base.CompatibleWith(NewCountSketch(d, 64, FixedSignRow(32), 1)); err != nil {
		t.Fatalf("same configuration: %v", err)
	}
	if err := base.CompatibleWith(decode(payload)); err != nil {
		t.Fatalf("decoded copy: %v", err)
	}
	salsa := NewCountSketch(d, 64, SalsaSignRow(8, false), 1)
	for name, other := range map[string]*CountSketch{
		"depth":           NewCountSketch(d+1, 64, FixedSignRow(32), 1),
		"width":           NewCountSketch(d, 128, FixedSignRow(32), 1),
		"row-0 seed":      decode(reseeded(payload, 0)),
		"last index seed": decode(reseeded(payload, d-1)),
		"row-0 sign seed": decode(reseeded(payload, d)),
		"last sign seed":  decode(reseeded(payload, 2*d-1)),
		"all seeds":       NewCountSketch(d, 64, FixedSignRow(32), 2),
		"row type":        salsa,
		"row geometry":    NewCountSketch(d, 64, FixedSignRow(16), 1),
		"salsa size":      NewCountSketch(d, 64, SalsaSignRow(16, false), 1),
	} {
		ref := base
		if name == "salsa size" {
			ref = salsa
		}
		if err := ref.CompatibleWith(other); err == nil {
			t.Errorf("%s: CompatibleWith accepted", name)
		}
		if err := other.CompatibleWith(ref); err == nil {
			t.Errorf("%s: reversed CompatibleWith accepted", name)
		}
	}
}
