package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestFixedMarshalRoundTrip(t *testing.T) {
	f := NewFixed(128, 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f.Add(rng.Intn(128), int64(rng.Intn(1000)))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalFixed(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Width() != f.Width() || g.CounterBits() != f.CounterBits() {
		t.Fatal("geometry lost")
	}
	for i := 0; i < 128; i++ {
		if g.Value(i) != f.Value(i) {
			t.Fatalf("slot %d: %d != %d", i, g.Value(i), f.Value(i))
		}
	}
}

func TestFixedSignMarshalRoundTrip(t *testing.T) {
	f := NewFixedSign(64, 32)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		f.Add(rng.Intn(64), int64(rng.Intn(2000))-1000)
	}
	data, _ := f.MarshalBinary()
	g, err := UnmarshalFixedSign(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if g.Value(i) != f.Value(i) {
			t.Fatalf("slot %d mismatch", i)
		}
	}
}

func TestSalsaMarshalRoundTrip(t *testing.T) {
	for _, compact := range []bool{false, true} {
		c := NewSalsa(128, 8, MaxMerge, compact)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 3000; i++ {
			c.Add(rng.Intn(128), int64(rng.Intn(500)))
		}
		data, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		g, err := UnmarshalSalsa(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 128; i++ {
			if g.Value(i) != c.Value(i) || g.Level(i) != c.Level(i) {
				t.Fatalf("compact=%v slot %d mismatch", compact, i)
			}
		}
		// The decoded array must remain fully operational, merges included.
		g.Add(0, 1<<40)
		if g.Level(0) != 3 {
			t.Fatal("decoded array cannot merge")
		}
	}
}

func TestSalsaSignMarshalRoundTrip(t *testing.T) {
	c := NewSalsaSign(128, 8, false)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		c.Add(rng.Intn(128), int64(rng.Intn(500))-250)
	}
	data, _ := c.MarshalBinary()
	g, err := UnmarshalSalsaSign(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if g.Value(i) != c.Value(i) {
			t.Fatalf("slot %d mismatch", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSalsa([]byte("nonsense")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := UnmarshalSalsa(nil); err == nil {
		t.Fatal("accepted nil")
	}
	// Kind confusion must be rejected.
	f := NewFixed(64, 8)
	data, _ := f.MarshalBinary()
	if _, err := UnmarshalSalsa(data); err == nil {
		t.Fatal("accepted a Fixed payload as Salsa")
	}
	// Truncation must be rejected.
	c := NewSalsa(64, 8, SumMerge, false)
	data, _ = c.MarshalBinary()
	if _, err := UnmarshalSalsa(data[:len(data)-4]); err == nil {
		t.Fatal("accepted truncated payload")
	}
}

// TestUnmarshalRejectsInvalidMergeBits crafts simple-encoding merge bits
// that describe no layout and requires both SALSA decoders to refuse them:
// a level-2 bit without both level-1 bits under it, a bit at a counter
// word's last slot (a counter spanning two words), and a bit past the
// width. Valid layouts of the same rows still decode.
func TestUnmarshalRejectsInvalidMergeBits(t *testing.T) {
	cases := []struct {
		name  string
		width int
		bits  uint64
		ok    bool
	}{
		{"level-2 bit missing a half", 64, 1<<0 | 1<<1, false},
		{"bit at a word's last slot", 64, 1 << 7, false},
		{"bit at the last slot of a later word", 64, 1 << 63, false},
		{"bit past the width", 8, 1 << 8, false},
		{"level-3 counter", 64, 0x7f, true},
		{"mixed levels", 64, 1<<0 | 1<<1 | 1<<2 | 1<<12, true},
	}
	for _, tc := range cases {
		c := NewSalsa(tc.width, 8, SumMerge, false)
		c.blWords[0] = tc.bits
		data, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		_, err = UnmarshalSalsa(data)
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrBadPayload)) {
			t.Errorf("Salsa %s: err = %v", tc.name, err)
		}
		cs := NewSalsaSign(tc.width, 8, false)
		cs.blWords[0] = tc.bits
		if data, err = cs.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		_, err = UnmarshalSalsaSign(data)
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrBadPayload)) {
			t.Errorf("SalsaSign %s: err = %v", tc.name, err)
		}
	}
}
