package core

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// rowPayload builds a counter-array payload byte by byte: the 16-byte
// header (magic, kind, bits, policy, compact, width), a counter block of
// nc zero words and, when nl ≥ 0, a layout block of nl zero words. Zero
// words are valid counters and an unmerged layout in both encodings, so a
// payload is rejected only for its header or its word counts.
func rowPayload(kind byte, bits uint, policy, compact byte, width, nc, nl int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x5a15a001)
	buf = append(buf, kind, byte(bits), policy, compact)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(width))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nc))
	buf = append(buf, make([]byte, 8*nc)...)
	if nl >= 0 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(nl))
		buf = append(buf, make([]byte, 8*nl)...)
	}
	return buf
}

// withLayoutWord returns a copy of a payload from rowPayload whose last
// word, its only layout word, is x.
func withLayoutWord(p []byte, x uint64) []byte {
	p = slices.Clone(p)
	binary.LittleEndian.PutUint64(p[len(p)-8:], x)
	return p
}

// TestUnmarshalGeometryTable pins what each of the four row decoders
// accepts and rejects: the header kind, truncated word blocks, word counts
// against the width, each type's counter-size and policy rules, the SALSA
// width rules of both merge encodings, and compact group numbers no merges
// could write. "bad" rejections must be ErrBadPayload; "err" ones may be
// any error. The acceptances include the header fields some decoders
// ignore (the policy byte of SalsaSign, Fixed and FixedSign, the compact
// byte of the Fixed rows).
func TestUnmarshalGeometryTable(t *testing.T) {
	decode := map[byte]func([]byte) error{
		1: func(b []byte) error { _, err := UnmarshalFixed(b); return err },
		2: func(b []byte) error { _, err := UnmarshalFixedSign(b); return err },
		3: func(b []byte) error { _, err := UnmarshalSalsa(b); return err },
		4: func(b []byte) error { _, err := UnmarshalSalsaSign(b); return err },
	}
	names := map[byte]string{1: "Fixed", 2: "FixedSign", 3: "Salsa", 4: "SalsaSign"}
	salsa := rowPayload
	fixed := func(kind byte, bits uint, policy byte, width, nc int) []byte {
		return rowPayload(kind, bits, policy, 0, width, nc, -1)
	}
	simple8 := salsa(3, 8, 0, 0, 64, 8, 1)
	// An 8-bit compact row of width 64 has maxLvl 3 and two groups of 32
	// counters, numbered in 19 bits each. Numbers: a₅−1 is one level-5
	// counter, (a₄−1)·a₄ a level-4 left half, and (a₃−1)·a₃·a₄ a level-3
	// first quarter.
	compact8 := func(kind byte, x uint64) []byte { return withLayoutWord(salsa(kind, 8, 0, 1, 64, 8, 1), x) }
	const level5, level4, level3 = 458330 - 1, 676 * 677, 25 * 26 * 677
	cases := []struct {
		name string
		kind byte // the decoder under test
		data []byte
		want string // "ok", "bad" (ErrBadPayload) or "err" (any error)
	}{
		// Fixed.
		{"8-bit", 1, fixed(1, 8, 0, 64, 8), "ok"},
		{"1-bit", 1, fixed(1, 1, 0, 64, 1), "ok"},
		{"64-bit", 1, fixed(1, 64, 0, 4, 4), "ok"},
		{"policy byte 7", 1, fixed(1, 8, 7, 64, 8), "ok"},
		{"compact byte", 1, rowPayload(1, 8, 0, 1, 64, 8, -1), "ok"},
		{"0-bit", 1, fixed(1, 0, 0, 64, 0), "bad"},
		{"3-bit", 1, fixed(1, 3, 0, 64, 3), "bad"},
		{"128-bit", 1, fixed(1, 128, 0, 1, 2), "bad"},
		{"zero width", 1, fixed(1, 8, 0, 0, 0), "bad"},
		{"one word short", 1, fixed(1, 8, 0, 64, 7), "bad"},
		{"one word over", 1, fixed(1, 8, 0, 64, 9), "bad"},
		{"truncated header", 1, fixed(1, 8, 0, 64, 8)[:10], "err"},
		{"truncated counters", 1, fixed(1, 8, 0, 64, 8)[:40], "err"},
		{"wrong kind", 1, fixed(2, 8, 0, 64, 8), "err"},

		// FixedSign.
		{"2-bit", 2, fixed(2, 2, 0, 64, 2), "ok"},
		{"64-bit", 2, fixed(2, 64, 0, 4, 4), "ok"},
		{"policy byte 7", 2, fixed(2, 32, 7, 64, 32), "ok"},
		{"1-bit", 2, fixed(2, 1, 0, 64, 1), "bad"},
		{"0-bit", 2, fixed(2, 0, 0, 64, 0), "bad"},
		{"one word short", 2, fixed(2, 8, 0, 64, 7), "bad"},
		{"truncated counters", 2, fixed(2, 8, 0, 64, 8)[:40], "err"},
		{"wrong kind", 2, fixed(1, 8, 0, 64, 8), "err"},

		// Salsa.
		{"simple sum", 3, simple8, "ok"},
		{"simple max", 3, salsa(3, 8, 1, 0, 64, 8, 1), "ok"},
		{"compact", 3, salsa(3, 8, 0, 1, 64, 8, 1), "ok"},
		{"1-bit simple", 3, salsa(3, 1, 0, 0, 64, 1, 1), "ok"},
		{"1-bit compact of 64", 3, salsa(3, 1, 0, 1, 64, 1, 1), "ok"},
		{"32-bit of width 2", 3, salsa(3, 32, 0, 0, 2, 1, 1), "ok"},
		{"policy byte 2", 3, salsa(3, 8, 2, 0, 64, 8, 1), "bad"},
		{"s 0", 3, salsa(3, 0, 0, 0, 64, 0, 1), "bad"},
		{"s 64", 3, salsa(3, 64, 0, 0, 64, 64, 1), "bad"},
		{"s 3", 3, salsa(3, 3, 0, 0, 64, 3, 1), "bad"},
		{"width not a multiple of 2^maxLvl", 3, salsa(3, 8, 0, 0, 12, 2, 1), "bad"},
		{"32-bit of width 1", 3, salsa(3, 32, 0, 0, 1, 1, 1), "bad"},
		{"compact width not a multiple of 32", 3, salsa(3, 8, 0, 1, 48, 6, 1), "bad"},
		{"1-bit compact of 32", 3, salsa(3, 1, 0, 1, 32, 1, 1), "bad"},
		{"compact level-3 counter", 3, compact8(3, level3), "ok"},
		{"compact level-3 counter in group 1", 3, compact8(3, level3<<19), "ok"},
		{"compact level-4 counter", 3, compact8(3, level4), "bad"},
		{"compact level-5 counter", 3, compact8(3, level5), "bad"},
		{"compact level-5 counter in group 1", 3, compact8(3, level5<<19), "bad"},
		{"compact group number a₅", 3, compact8(3, level5+1), "bad"},
		{"1-bit compact level-6 counter", 3, withLayoutWord(salsa(3, 1, 0, 1, 64, 1, 1), 210066388901-1), "ok"},
		{"1-bit compact group number a₆", 3, withLayoutWord(salsa(3, 1, 0, 1, 64, 1, 1), 210066388901), "bad"},
		{"zero width", 3, salsa(3, 8, 0, 0, 0, 0, 0), "bad"},
		{"counter words short", 3, salsa(3, 8, 0, 0, 64, 7, 1), "bad"},
		{"layout words over", 3, salsa(3, 8, 0, 0, 64, 8, 2), "bad"},
		{"layout words short", 3, salsa(3, 8, 0, 0, 64, 8, 0), "bad"},
		{"truncated counters", 3, simple8[:40], "err"},
		{"truncated layout", 3, simple8[:len(simple8)-4], "err"},
		{"no layout block", 3, salsa(3, 8, 0, 0, 64, 8, -1), "err"},
		{"wrong kind", 3, salsa(4, 8, 0, 0, 64, 8, 1), "err"},

		// SalsaSign.
		{"simple", 4, salsa(4, 8, 0, 0, 64, 8, 1), "ok"},
		{"compact", 4, salsa(4, 8, 0, 1, 64, 8, 1), "ok"},
		{"2-bit", 4, salsa(4, 2, 0, 0, 64, 2, 1), "ok"},
		{"policy byte 7", 4, salsa(4, 8, 7, 0, 64, 8, 1), "ok"},
		{"s 1", 4, salsa(4, 1, 0, 0, 64, 1, 1), "bad"},
		{"s 0", 4, salsa(4, 0, 0, 0, 64, 0, 1), "bad"},
		{"s 64", 4, salsa(4, 64, 0, 0, 64, 64, 1), "bad"},
		{"width not a multiple of 2^maxLvl", 4, salsa(4, 8, 0, 0, 12, 2, 1), "bad"},
		{"compact width not a multiple of 32", 4, salsa(4, 8, 0, 1, 48, 6, 1), "bad"},
		{"compact level-3 counter", 4, compact8(4, level3), "ok"},
		{"compact level-4 counter", 4, compact8(4, level4), "bad"},
		{"compact level-5 counter", 4, compact8(4, level5), "bad"},
		{"compact group number a₅", 4, compact8(4, level5+1), "bad"},
		{"2-bit compact level-5 counter", 4, withLayoutWord(salsa(4, 2, 0, 1, 64, 2, 1), level5), "ok"},
		{"counter words over", 4, salsa(4, 8, 0, 0, 64, 9, 1), "bad"},
		{"layout words over", 4, salsa(4, 8, 0, 0, 64, 8, 2), "bad"},
		{"truncated counters", 4, salsa(4, 8, 0, 0, 64, 8, 1)[:40], "err"},
		{"truncated layout", 4, salsa(4, 8, 0, 0, 64, 8, 1)[:len(simple8)-4], "err"}, // same length as simple8
		{"wrong kind", 4, simple8, "err"},
	}
	for _, tc := range cases {
		err := decode[tc.kind](tc.data)
		var ok bool
		switch tc.want {
		case "ok":
			ok = err == nil
		case "bad":
			ok = errors.Is(err, ErrBadPayload)
		case "err":
			ok = err != nil
		}
		if !ok {
			t.Errorf("%s %s: err = %v, want %s", names[tc.kind], tc.name, err, tc.want)
		}
	}
}

// TestTangoRowsAllocateAsSalsaRows holds NewTangoRows to the allocations
// of NewSalsaRows at the same shape: one arena, the row slice and each
// row's structures, and no link vector built only to be replaced by the
// arena's.
func TestTangoRowsAllocateAsSalsaRows(t *testing.T) {
	for _, d := range []int{1, 4} {
		tango := testing.AllocsPerRun(20, func() { NewTangoRows(d, 1024, 8, SumMerge) })
		salsa := testing.AllocsPerRun(20, func() { NewSalsaRows(d, 1024, 8, SumMerge, false) })
		if tango > salsa {
			t.Errorf("d=%d: NewTangoRows allocates %v times, NewSalsaRows %v", d, tango, salsa)
		}
	}
}

// TestRowsConstructorsPanicOnInvalidSize holds the arena constructors to
// the counter-size and width rules of the loose constructors.
func TestRowsConstructorsPanicOnInvalidSize(t *testing.T) {
	cases := []struct {
		name  string
		build func()
	}{
		{"NewSalsaRows s 0", func() { NewSalsaRows(2, 64, 0, SumMerge, false) }},
		{"NewSalsaRows s 3", func() { NewSalsaRows(2, 64, 3, SumMerge, false) }},
		{"NewSalsaRows s 64", func() { NewSalsaRows(2, 64, 64, MaxMerge, false) }},
		{"NewSalsaRows width 12", func() { NewSalsaRows(2, 12, 8, SumMerge, false) }},
		{"NewSalsaRows compact width 48", func() { NewSalsaRows(2, 48, 8, SumMerge, true) }},
		{"NewSalsaSignRows s 1", func() { NewSalsaSignRows(2, 64, 1, false) }},
		{"NewSalsaSignRows s 3", func() { NewSalsaSignRows(2, 64, 3, true) }},
		{"NewSalsaSignRows s 64", func() { NewSalsaSignRows(2, 64, 64, false) }},
		{"NewFixedSignRows 1-bit", func() { NewFixedSignRows(2, 64, 1) }},
		{"NewFixedSignRows 3-bit", func() { NewFixedSignRows(2, 64, 3) }},
		{"NewFixedRows 0-bit", func() { NewFixedRows(2, 64, 0) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.build()
		}()
	}
}

// TestRowMethodSets pins the exported methods of the four row types, name
// and signature, so that moving storage methods onto a shared core neither
// adds, drops nor retypes one.
func TestRowMethodSets(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf((*Fixed)(nil)): {
			"Add func(*core.Fixed, int, int64)",
			"AddSlots func(*core.Fixed, []uint32, int64)",
			"AppendBinary func(*core.Fixed, []uint8) ([]uint8, error)",
			"BinarySize func(*core.Fixed) int",
			"CopyFrom func(*core.Fixed, *core.Fixed)",
			"CounterBits func(*core.Fixed) uint",
			"Halve func(*core.Fixed, bool, func() uint64)",
			"MarshalBinary func(*core.Fixed) ([]uint8, error)",
			"MergeFrom func(*core.Fixed, *core.Fixed)",
			"Reset func(*core.Fixed)",
			"SameGeometry func(*core.Fixed, *core.Fixed) bool",
			"SetAtLeast func(*core.Fixed, int, uint64)",
			"SizeBits func(*core.Fixed) int",
			"SubtractFrom func(*core.Fixed, *core.Fixed)",
			"Value func(*core.Fixed, int) uint64",
			"Width func(*core.Fixed) int",
			"ZeroCount func(*core.Fixed) int",
			"ZeroFraction func(*core.Fixed) float64",
		},
		reflect.TypeOf((*FixedSign)(nil)): {
			"Add func(*core.FixedSign, int, int64)",
			"AddSignedSlots func(*core.FixedSign, []uint32, []int8, int64)",
			"AppendBinary func(*core.FixedSign, []uint8) ([]uint8, error)",
			"BinarySize func(*core.FixedSign) int",
			"CopyFrom func(*core.FixedSign, *core.FixedSign)",
			"CounterBits func(*core.FixedSign) uint",
			"MarshalBinary func(*core.FixedSign) ([]uint8, error)",
			"MergeFrom func(*core.FixedSign, *core.FixedSign, int64)",
			"Reset func(*core.FixedSign)",
			"SameGeometry func(*core.FixedSign, *core.FixedSign) bool",
			"SizeBits func(*core.FixedSign) int",
			"Value func(*core.FixedSign, int) int64",
			"Width func(*core.FixedSign) int",
		},
		reflect.TypeOf((*Salsa)(nil)): {
			"Add func(*core.Salsa, int, int64)",
			"AddSlots func(*core.Salsa, []uint32, int64)",
			"AppendBinary func(*core.Salsa, []uint8) ([]uint8, error)",
			"BaseBits func(*core.Salsa) uint",
			"BinarySize func(*core.Salsa) int",
			"Compact func(*core.Salsa) bool",
			"CopyFrom func(*core.Salsa, *core.Salsa)",
			"CounterRange func(*core.Salsa, int) (int, int)",
			"Counters func(*core.Salsa, func(int, uint, uint64) bool)",
			"EstimatedZeroFraction func(*core.Salsa) float64",
			"Halve func(*core.Salsa, bool, func() uint64, bool)",
			"Level func(*core.Salsa, int) uint",
			"MarshalBinary func(*core.Salsa) ([]uint8, error)",
			"MergeFrom func(*core.Salsa, *core.Salsa)",
			"Merges func(*core.Salsa) uint64",
			"Policy func(*core.Salsa) core.MergePolicy",
			"Reset func(*core.Salsa)",
			"SameGeometry func(*core.Salsa, *core.Salsa) bool",
			"SetAtLeast func(*core.Salsa, int, uint64)",
			"SizeBits func(*core.Salsa) int",
			"SubtractFrom func(*core.Salsa, *core.Salsa)",
			"Value func(*core.Salsa, int) uint64",
			"Width func(*core.Salsa) int",
			"ZeroFraction func(*core.Salsa) float64",
			"ZeroStats func(*core.Salsa) core.ZeroStats",
		},
		reflect.TypeOf((*SalsaSign)(nil)): {
			"Add func(*core.SalsaSign, int, int64)",
			"AddSignedSlots func(*core.SalsaSign, []uint32, []int8, int64)",
			"AppendBinary func(*core.SalsaSign, []uint8) ([]uint8, error)",
			"BaseBits func(*core.SalsaSign) uint",
			"BinarySize func(*core.SalsaSign) int",
			"Compact func(*core.SalsaSign) bool",
			"CopyFrom func(*core.SalsaSign, *core.SalsaSign)",
			"Counters func(*core.SalsaSign, func(int, uint, int64) bool)",
			"Level func(*core.SalsaSign, int) uint",
			"MarshalBinary func(*core.SalsaSign) ([]uint8, error)",
			"MergeFrom func(*core.SalsaSign, *core.SalsaSign, int64)",
			"Merges func(*core.SalsaSign) uint64",
			"Reset func(*core.SalsaSign)",
			"SameGeometry func(*core.SalsaSign, *core.SalsaSign) bool",
			"SizeBits func(*core.SalsaSign) int",
			"Value func(*core.SalsaSign, int) int64",
			"Width func(*core.SalsaSign) int",
		},
	}
	for typ, w := range want {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			got = append(got, m.Name+" "+m.Type.String())
		}
		if !slices.Equal(got, w) {
			t.Errorf("%v methods:\n got %q\nwant %q", typ, got, w)
		}
	}
}
