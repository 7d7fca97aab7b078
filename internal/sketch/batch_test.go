package sketch

import (
	"testing"

	"salsa/internal/core"
	"salsa/internal/stream"
)

// batchSpecs covers every row backend the batch path dispatches over.
func batchSpecs() map[string]RowSpec {
	return map[string]RowSpec{
		"Fixed32":      FixedRow(32),
		"Fixed8":       FixedRow(8),
		"SalsaMax":     SalsaRow(8, core.MaxMerge, false),
		"SalsaSum":     SalsaRow(8, core.SumMerge, false),
		"SalsaCompact": SalsaRow(8, core.MaxMerge, true),
		"Tango":        TangoRow(8, core.MaxMerge),
	}
}

// TestCMSUpdateBatchEquivalent pins the batch contract: UpdateBatch leaves
// the sketch in the identical state as per-item Updates in the same order,
// for every row backend and both update rules, including counter values at
// every slot (not just the queried minima).
func TestCMSUpdateBatchEquivalent(t *testing.T) {
	data := stream.Zipf(60000, 3000, 1.0, 7)
	for name, spec := range batchSpecs() {
		for _, conservative := range []bool{false, true} {
			seq := NewCMS(4, 1<<10, spec, 11)
			bat := NewCMS(4, 1<<10, spec, 11)
			if conservative {
				seq = NewCUS(4, 1<<10, spec, 11)
				bat = NewCUS(4, 1<<10, spec, 11)
			}
			for _, x := range data {
				seq.Update(x, 1)
			}
			// Ragged batch sizes exercise the chunking boundaries.
			for off, size := 0, 1; off < len(data); size = size*3 + 1 {
				end := off + size
				if end > len(data) {
					end = len(data)
				}
				bat.UpdateBatch(data[off:end], 1)
				off = end
			}
			for row := range seq.rows {
				for slot := 0; slot < seq.Width(); slot++ {
					if a, b := seq.rows[row].Value(slot), bat.rows[row].Value(slot); a != b {
						t.Fatalf("%s conservative=%v: row %d slot %d: sequential %d != batch %d",
							name, conservative, row, slot, a, b)
					}
				}
			}
		}
	}
}

func TestCMSQueryBatch(t *testing.T) {
	data := stream.Zipf(30000, 2000, 1.0, 9)
	sk := NewCMS(4, 1<<10, SalsaRow(8, core.MaxMerge, false), 3)
	sk.UpdateBatch(data, 1)
	items := make([]uint64, 700)
	for i := range items {
		items[i] = uint64(i)
	}
	got := sk.QueryBatch(items, nil)
	if len(got) != len(items) {
		t.Fatalf("len = %d, want %d", len(got), len(items))
	}
	for i, x := range items {
		if want := sk.Query(x); got[i] != want {
			t.Fatalf("item %d: QueryBatch %d != Query %d", x, got[i], want)
		}
	}
	// A caller-provided buffer longer than items must be reused, not grown.
	buf := make([]uint64, 1024)
	got2 := sk.QueryBatch(items[:10], buf)
	if &got2[0] != &buf[0] || len(got2) != 10 {
		t.Fatal("QueryBatch did not reuse the provided buffer")
	}
}

// TestCountSketchBatchEquivalent pins UpdateBatch and QueryBatch against
// per-item Updates and Queries on the fast path, and against a
// disableFast twin fed the same updates one at a time: each batch carries
// one weight, and every third batch subtracts.
func TestCountSketchBatchEquivalent(t *testing.T) {
	data := stream.Zipf(40000, 2500, 1.0, 13)
	for name, spec := range csSpecs() {
		seq := NewCountSketch(5, 1<<10, spec, 17)
		bat := NewCountSketch(5, 1<<10, spec, 17)
		generic := NewCountSketch(5, 1<<10, spec, 17)
		generic.disableFast()
		for off, k := 0, 0; off < len(data); off, k = off+1000, k+1 {
			end := min(off+1000, len(data))
			v := mixedSign(k, int64(1+k%4))
			bat.UpdateBatch(data[off:end], v)
			for _, x := range data[off:end] {
				seq.Update(x, v)
				generic.Update(x, v)
			}
		}
		checkCSEqual(t, name+"/batch", bat, generic)
		checkCSEqual(t, name+"/sequential", seq, generic)
		items := make([]uint64, 500)
		for i := range items {
			items[i] = uint64(i)
		}
		est := bat.QueryBatch(items, nil)
		for i, x := range items {
			if seq.Query(x) != bat.Query(x) {
				t.Fatalf("%s: item %d: sequential %d != batch-built %d", name, x, seq.Query(x), bat.Query(x))
			}
			if want := generic.Query(x); est[i] != want {
				t.Fatalf("%s: item %d: QueryBatch %d != generic Query %d", name, x, est[i], want)
			}
		}
	}
}
