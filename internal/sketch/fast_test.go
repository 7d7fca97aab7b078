package sketch

import (
	"bytes"
	"fmt"
	"testing"

	"salsa/internal/core"
	"salsa/internal/stream"
)

// The fast/general equivalence suite: every monomorphic hot path must leave
// the sketch bit-for-bit identical to the generic interface path fed the
// same stream. Marshalable backends are compared marshal-byte-exact; Tango
// (no marshal format) is compared counter-by-counter including spans.

// runPair drives a fast-path sketch and a fast-path-disabled twin through
// the identical op sequence.
func runPair(t *testing.T, build func() *CMS, drive func(c *CMS)) (fast, generic *CMS) {
	t.Helper()
	fast = build()
	generic = build()
	generic.disableFast()
	if generic.fixed != nil || generic.salsa != nil || generic.tango != nil {
		t.Fatal("disableFast left a monomorphic view")
	}
	drive(fast)
	drive(generic)
	return fast, generic
}

// checkCMSEqual asserts bit-for-bit equality: marshal bytes when the
// backend marshals, per-slot values (and Tango spans) otherwise.
func checkCMSEqual(t *testing.T, name string, fast, generic *CMS) {
	t.Helper()
	if _, tango := fast.rows[0].(*core.Tango); !tango {
		fb, err1 := fast.MarshalBinary()
		gb, err2 := generic.MarshalBinary()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: marshal: %v / %v", name, err1, err2)
		}
		if !bytes.Equal(fb, gb) {
			t.Fatalf("%s: fast and generic paths diverged (marshal bytes differ)", name)
		}
		return
	}
	for i := range fast.rows {
		ft, gt := fast.rows[i].(*core.Tango), generic.rows[i].(*core.Tango)
		for slot := 0; slot < ft.Width(); slot++ {
			flo, fhi := ft.Span(slot)
			glo, ghi := gt.Span(slot)
			if flo != glo || fhi != ghi {
				t.Fatalf("%s: row %d slot %d: span (%d,%d) != (%d,%d)",
					name, i, slot, flo, fhi, glo, ghi)
			}
			if fv, gv := ft.Value(slot), gt.Value(slot); fv != gv {
				t.Fatalf("%s: row %d slot %d: value %d != %d", name, i, slot, fv, gv)
			}
		}
	}
}

// fastSpecs is batchSpecs plus an 8-bit fixed baseline and every SALSA base
// size; every monomorphic CMS backend appears.
func fastSpecs() map[string]RowSpec {
	return map[string]RowSpec{
		"Fixed32":      FixedRow(32),
		"Fixed8":       FixedRow(8),
		"SalsaMax":     SalsaRow(8, core.MaxMerge, false),
		"SalsaSum":     SalsaRow(8, core.SumMerge, false),
		"SalsaMax1":    SalsaRow(1, core.MaxMerge, false),
		"SalsaSum2":    SalsaRow(2, core.SumMerge, false),
		"SalsaMax4":    SalsaRow(4, core.MaxMerge, false),
		"SalsaSum4":    SalsaRow(4, core.SumMerge, false),
		"SalsaSum16":   SalsaRow(16, core.SumMerge, false),
		"SalsaMax32":   SalsaRow(32, core.MaxMerge, false),
		"SalsaCompact": SalsaRow(8, core.MaxMerge, true),
		"Tango":        TangoRow(8, core.MaxMerge),
		"TangoSum":     TangoRow(8, core.SumMerge),
	}
}

// equivalenceRun is one stream an equivalence test feeds: the first n items
// of its Zipf stream into sketches of depth d, item j weighing weight(j).
type equivalenceRun struct {
	tag    string
	d, n   int
	weight func(j int) int64
}

// equivalenceRuns returns the runs of the update equivalence tests: the
// whole stream at depth 4 with the test's weight w, a third of it at depths
// 1, 3, 5 and 9, and a third whose weights climb to 2^62, so a few updates
// of one item pass 2^63 and 64-bit counters saturate.
func equivalenceRuns(n int, w func(j int) int64) []equivalenceRun {
	runs := []equivalenceRun{{"d4", 4, n, w}}
	for _, d := range []int{1, 3, 5, 9} {
		runs = append(runs, equivalenceRun{fmt.Sprintf("d%d", d), d, n / 3, w})
	}
	saturating := func(j int) int64 { return 1 << (62 - j%63) }
	return append(runs, equivalenceRun{"d4/saturating", 4, n / 3, saturating})
}

func TestFastPathEquivalenceCMS(t *testing.T) {
	data := stream.Zipf(80000, 4000, 1.0, 21)
	for name, spec := range fastSpecs() {
		for _, conservative := range []bool{false, true} {
			build := func() *CMS {
				if conservative {
					return NewCUS(4, 1<<10, spec, 33)
				}
				return NewCMS(4, 1<<10, spec, 33)
			}
			// Heavy counts force overflows and merges, so the fast paths'
			// general-path fallbacks fire too.
			fast, generic := runPair(t, build, func(c *CMS) {
				for j, x := range data {
					c.Update(x, int64(1+j%7))
				}
			})
			tag := name
			if conservative {
				tag += "/conservative"
			}
			checkCMSEqual(t, tag, fast, generic)
			for _, x := range data[:2000] {
				if fv, gv := fast.Query(x), generic.Query(x); fv != gv {
					t.Fatalf("%s: query(%d): fast %d != generic %d", tag, x, fv, gv)
				}
			}
		}
	}
}

// TestUpdateEstimateEquivalence pins the fused update-and-estimate path:
// every returned estimate equals a Query right after the update, and the
// fused sketch stays bit-for-bit identical to a fast-path-disabled twin,
// whose UpdateEstimate is the plain Update followed by Query. The narrow
// width drives counters through overflow, so the raise passes' SetAtLeast
// fallbacks fire too.
func TestUpdateEstimateEquivalence(t *testing.T) {
	data := stream.Zipf(60000, 3000, 1.0, 23)
	runs := equivalenceRuns(len(data), func(j int) int64 { return int64(1 + j%7) })
	for name, spec := range fastSpecs() {
		for _, conservative := range []bool{false, true} {
			for _, run := range runs {
				build := func() *CMS {
					if conservative {
						return NewCUS(run.d, 1<<8, spec, 19)
					}
					return NewCMS(run.d, 1<<8, spec, 19)
				}
				tag := name + "/" + run.tag
				if conservative {
					tag += "/conservative"
				}
				fast, generic := runPair(t, build, func(c *CMS) {
					for j, x := range data[:run.n] {
						if est, want := c.UpdateEstimate(x, run.weight(j)), c.Query(x); est != want {
							t.Fatalf("%s: item %d (#%d): UpdateEstimate = %d, Query = %d", tag, x, j, est, want)
						}
					}
				})
				checkCMSEqual(t, tag, fast, generic)
			}
		}
	}
}

// TestFastPathEquivalenceCMSNegative covers the Strict Turnstile decrement
// route of the sum-merge backends.
func TestFastPathEquivalenceCMSNegative(t *testing.T) {
	data := stream.Zipf(50000, 2500, 1.0, 5)
	for name, spec := range map[string]RowSpec{
		"Fixed32":  FixedRow(32),
		"SalsaSum": SalsaRow(8, core.SumMerge, false),
		"TangoSum": TangoRow(8, core.SumMerge),
	} {
		build := func() *CMS { return NewCMS(4, 1<<10, spec, 17) }
		fast, generic := runPair(t, build, func(c *CMS) {
			for j, x := range data {
				if j%5 == 4 {
					c.Update(x, -2)
				} else {
					c.Update(x, 3)
				}
			}
		})
		checkCMSEqual(t, name, fast, generic)
	}
}

// TestFastPathEquivalenceBatch pins the batch routes (UpdateBatch and the
// conservative batch) against the generic per-item path.
func TestFastPathEquivalenceBatch(t *testing.T) {
	data := stream.Zipf(60000, 3000, 1.0, 41)
	runs := equivalenceRuns(len(data), func(int) int64 { return 2 })
	for name, spec := range fastSpecs() {
		for _, conservative := range []bool{false, true} {
			for _, run := range runs {
				build := func() *CMS {
					if conservative {
						return NewCUS(run.d, 1<<10, spec, 9)
					}
					return NewCMS(run.d, 1<<10, spec, 9)
				}
				fast := build()
				generic := build()
				generic.disableFast()
				// Each batch carries one weight: the run's weight of its
				// first item.
				for off := 0; off < run.n; off += 1777 {
					end := min(off+1777, run.n)
					fast.UpdateBatch(data[off:end], run.weight(off))
					for _, x := range data[off:end] {
						generic.Update(x, run.weight(off))
					}
				}
				tag := name + "/batch/" + run.tag
				if conservative {
					tag += "/conservative"
				}
				checkCMSEqual(t, tag, fast, generic)
				// QueryBatch against the generic single-item Query.
				items := data[:1500]
				got := fast.QueryBatch(items, nil)
				for i, x := range items {
					if want := generic.Query(x); got[i] != want {
						t.Fatalf("%s: QueryBatch(%d) = %d, want %d", tag, x, got[i], want)
					}
				}
			}
		}
	}
}

// csSpecs covers every Count Sketch row backend at every base size a
// signed SALSA row accepts (one of its bits is the sign, so 2–32).
func csSpecs() map[string]SignedRowSpec {
	return map[string]SignedRowSpec{
		"FixedSign32":      FixedSignRow(32),
		"FixedSign8":       FixedSignRow(8),
		"SalsaSign":        SalsaSignRow(8, false),
		"SalsaSign2":       SalsaSignRow(2, false),
		"SalsaSign4":       SalsaSignRow(4, false),
		"SalsaSign16":      SalsaSignRow(16, false),
		"SalsaSign32":      SalsaSignRow(32, false),
		"SalsaSignCompact": SalsaSignRow(8, true),
	}
}

// mixedSign is the Count Sketch test weight: every third update subtracts,
// so counters overflow in both directions.
func mixedSign(j int, v int64) int64 {
	if j%3 == 2 {
		return -v
	}
	return v
}

// TestFastPathEquivalenceCountSketch runs each backend over a mixed-sign
// stream, and again with weights that climb to ±2^62: two same-sign updates
// of 2^62 on one 64-bit counter sum to exactly MinInt64, which the 64-bit
// update must clamp as the general path does.
func TestFastPathEquivalenceCountSketch(t *testing.T) {
	data := stream.Zipf(60000, 3000, 1.0, 29)
	runs := []equivalenceRun{
		{"mixed", 5, len(data), func(j int) int64 { return mixedSign(j, int64(1+j%6)) }},
		{"saturating", 5, len(data) / 3, func(j int) int64 { return mixedSign(j, 1<<(62-j%63)) }},
	}
	for name, spec := range csSpecs() {
		for _, run := range runs {
			tag := name + "/" + run.tag
			build := func() *CountSketch { return NewCountSketch(run.d, 1<<10, spec, 13) }
			fast := build()
			generic := build()
			generic.disableFast()
			for j, x := range data[:run.n] {
				fast.Update(x, run.weight(j))
				generic.Update(x, run.weight(j))
			}
			checkCSEqual(t, tag, fast, generic)
			for _, x := range data[:2000] {
				if fv, gv := fast.Query(x), generic.Query(x); fv != gv {
					t.Fatalf("%s: query(%d): fast %d != generic %d", tag, x, fv, gv)
				}
			}
		}
	}
}

// checkCSEqual asserts that two Count Sketches marshal to the same bytes.
func checkCSEqual(t *testing.T, name string, fast, generic *CountSketch) {
	t.Helper()
	fb, err1 := fast.MarshalBinary()
	gb, err2 := generic.MarshalBinary()
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v / %v", name, err1, err2)
	}
	if !bytes.Equal(fb, gb) {
		t.Fatalf("%s: fast and generic paths diverged (marshal bytes differ)", name)
	}
}

// TestUnmarshalKeepsFastPath pins that decoded sketches classify their rows
// and keep the monomorphic view.
func TestUnmarshalKeepsFastPath(t *testing.T) {
	cms := NewCMS(4, 1<<8, SalsaRow(8, core.MaxMerge, false), 3)
	cms.Update(42, 9)
	payload, err := cms.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCMS(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.salsa == nil {
		t.Fatal("unmarshaled CMS lost the monomorphic salsa view")
	}
	cs := NewCountSketch(5, 1<<8, SalsaSignRow(8, false), 3)
	cs.Update(42, 9)
	payload, err = cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	csBack, err := UnmarshalCountSketch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if csBack.salsa == nil {
		t.Fatal("unmarshaled CountSketch lost the monomorphic salsa view")
	}
}

// TestArenaRowsShareGeometry pins that arena-built rows behave exactly like
// individually-allocated rows (same marshal bytes after the same stream).
func TestArenaRowsShareGeometry(t *testing.T) {
	data := stream.Zipf(30000, 1500, 1.0, 77)
	// loose builds each row on its own with a core constructor.
	loose := func(row func(width int) Row) RowSpec {
		return func(d, width int) []Row {
			rows := make([]Row, d)
			for i := range rows {
				rows[i] = row(width)
			}
			return rows
		}
	}
	for name, pair := range map[string][2]RowSpec{
		"fixed": {FixedRow(32), loose(func(w int) Row { return core.NewFixed(w, 32) })},
		"salsa": {SalsaRow(8, core.MaxMerge, false), loose(func(w int) Row { return core.NewSalsa(w, 8, core.MaxMerge, false) })},
	} {
		arena := NewCMS(4, 1<<10, pair[0], 7)
		loose := NewCMS(4, 1<<10, pair[1], 7)
		for _, x := range data {
			arena.Update(x, 1)
			loose.Update(x, 1)
		}
		ab, err1 := arena.MarshalBinary()
		lb, err2 := loose.MarshalBinary()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: marshal: %v / %v", name, err1, err2)
		}
		if !bytes.Equal(ab, lb) {
			t.Fatalf("%s: arena-backed rows diverged from loose rows", name)
		}
	}
}
