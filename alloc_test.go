package salsa

// Zero-allocation regression suite: every steady-state ingestion and query
// path must run without heap allocation — the hot loops are the product's
// whole point, and a single boxed value per op would dominate the ns/op
// budget. Each case warms the op first so lazily-built scratch (batch
// buffers, windowed merge views) is in place, then asserts
// testing.AllocsPerRun == 0. CI runs these without -race (the race
// detector's instrumentation allocates).
//
// Every sketch here is constructed through the Spec algebra and
// salsa.Build — the suite doubles as the guarantee that the composable
// facade returns the same concrete monomorphic types underneath and costs
// nothing on the devirtualized hot paths of PR 3.

import (
	"fmt"
	"testing"
)

// assertZeroAllocs runs op once to warm lazy scratch, then asserts the
// steady state allocates nothing.
func assertZeroAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	op()
	if avg := testing.AllocsPerRun(100, op); avg != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, avg)
	}
}

var allocItems = func() []uint64 {
	items := make([]uint64, 512)
	for i := range items {
		items[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return items
}()

func TestZeroAllocCountMin(t *testing.T) {
	for _, mode := range []Mode{ModeSALSA, ModeBaseline, ModeTango} {
		for _, conservative := range []bool{false, true} {
			opt := Options{Width: 1 << 10, Mode: mode, Seed: 1}
			spec := CountMinOf(opt)
			if conservative {
				spec = ConservativeOf(opt)
			}
			cm := MustBuild(spec).(*CountMin)
			tag := fmt.Sprintf("%s/conservative=%v", mode, conservative)
			cm.IncrementBatch(allocItems)
			dst := make([]uint64, len(allocItems))
			i := 0
			assertZeroAllocs(t, tag+"/Update", func() { cm.Update(allocItems[i%512], 1); i++ })
			assertZeroAllocs(t, tag+"/Query", func() { _ = cm.Query(allocItems[i%512]); i++ })
			assertZeroAllocs(t, tag+"/UpdateBatch", func() { cm.UpdateBatch(allocItems, 1) })
			assertZeroAllocs(t, tag+"/QueryBatch", func() { cm.QueryBatch(allocItems, dst) })
		}
	}
}

func TestZeroAllocCountMinCompact(t *testing.T) {
	cm := MustBuild(CountMinOf(Options{Width: 1 << 10, CompactEncoding: true, Seed: 1})).(*CountMin)
	cm.IncrementBatch(allocItems)
	i := 0
	assertZeroAllocs(t, "compact/Update", func() { cm.Update(allocItems[i%512], 1); i++ })
	assertZeroAllocs(t, "compact/Query", func() { _ = cm.Query(allocItems[i%512]); i++ })
}

func TestZeroAllocCountSketch(t *testing.T) {
	for _, mode := range []Mode{ModeSALSA, ModeBaseline} {
		cs := MustBuild(CountSketchOf(Options{Width: 1 << 10, Mode: mode, Seed: 1})).(*CountSketch)
		tag := mode.String()
		cs.IncrementBatch(allocItems)
		dst := make([]int64, len(allocItems))
		i := 0
		assertZeroAllocs(t, tag+"/Update", func() { cs.Update(allocItems[i%512], 1); i++ })
		assertZeroAllocs(t, tag+"/Query", func() { _ = cs.Query(allocItems[i%512]); i++ })
		assertZeroAllocs(t, tag+"/UpdateBatch", func() { cs.UpdateBatch(allocItems, 1) })
		assertZeroAllocs(t, tag+"/QueryBatch", func() { cs.QueryBatch(allocItems, dst) })
	}
}

func TestZeroAllocWindowed(t *testing.T) {
	// Rotation interval small enough that the steady state crosses bucket
	// boundaries: rotations themselves must not allocate either.
	wcm := MustBuild(Windowed(CountMinOf(Options{Width: 1 << 10, Seed: 1}), 4, 1<<12)).(*WindowedCountMin)
	wcu := MustBuild(Windowed(ConservativeOf(Options{Width: 1 << 10, Seed: 1}), 4, 1<<12)).(*WindowedCountMin)
	wcs := MustBuild(Windowed(CountSketchOf(Options{Width: 1 << 10, Seed: 1}), 4, 1<<12)).(*WindowedCountSketch)
	udst := make([]uint64, len(allocItems))
	sdst := make([]int64, len(allocItems))
	for _, w := range []struct {
		tag         string
		update      func(uint64)
		query       func(uint64)
		updateBatch func()
		queryBatch  func()
		tick        func()
	}{
		{"countmin",
			wcm.Increment, func(x uint64) { _ = wcm.Query(x) },
			func() { wcm.IncrementBatch(allocItems) }, func() { wcm.QueryBatch(allocItems, udst) },
			wcm.Tick},
		{"conservative",
			wcu.Increment, func(x uint64) { _ = wcu.Query(x) },
			func() { wcu.IncrementBatch(allocItems) }, func() { wcu.QueryBatch(allocItems, udst) },
			wcu.Tick},
		{"countsketch",
			wcs.Increment, func(x uint64) { _ = wcs.Query(x) },
			func() { wcs.IncrementBatch(allocItems) }, func() { wcs.QueryBatch(allocItems, sdst) },
			wcs.Tick},
	} {
		w.updateBatch()
		i := 0
		assertZeroAllocs(t, "windowed/"+w.tag+"/Update", func() { w.update(allocItems[i%512]); i++ })
		assertZeroAllocs(t, "windowed/"+w.tag+"/Query", func() { w.query(allocItems[i%512]); i++ })
		assertZeroAllocs(t, "windowed/"+w.tag+"/UpdateBatch", w.updateBatch)
		assertZeroAllocs(t, "windowed/"+w.tag+"/QueryBatch", w.queryBatch)
		assertZeroAllocs(t, "windowed/"+w.tag+"/Tick", w.tick)
	}
}

// TestZeroAllocPromoted extends the suite to the sketches folded into the
// Spec algebra by PR 6: the promotion must not cost the hot paths their
// zero-allocation steady state.
func TestZeroAllocPromoted(t *testing.T) {
	opt := Options{Width: 1 << 10, Seed: 1}
	um := MustBuild(UnivMonOf(opt, 8, 32)).(*UnivMon)
	aeeS := MustBuild(AEEOf(opt)).(*AEE)
	aeeB := MustBuild(AEEOf(Options{Width: 1 << 10, Mode: ModeBaseline, Seed: 1})).(*AEE)
	d := MustBuild(DistinctOf(opt)).(*Distinct)
	cf := MustBuild(Filtered(ConservativeOf(opt))).(*ColdFilter)
	py := MustBuild(Tiered(CountMinOf(opt))).(*Pyramid)
	for _, s := range []struct {
		tag string
		one func(uint64)
		qry func(uint64)
		bat func()
	}{
		{"univmon", func(x uint64) { um.Update(x, 1) }, func(x uint64) { _ = um.Volume() },
			func() { um.UpdateBatch(allocItems, 1) }},
		{"aee-salsa", func(x uint64) { aeeS.Update(x, 1) }, func(x uint64) { _ = aeeS.Query(x) },
			func() { aeeS.UpdateBatch(allocItems, 1) }},
		{"aee-baseline", func(x uint64) { aeeB.Update(x, 1) }, func(x uint64) { _ = aeeB.Query(x) },
			func() { aeeB.UpdateBatch(allocItems, 1) }},
		{"distinct", d.Increment, func(x uint64) { _ = d.Query(x) },
			func() { d.UpdateBatch(allocItems, 1) }},
		{"coldfilter", func(x uint64) { cf.Update(x, 1) }, func(x uint64) { _ = cf.Query(x) },
			func() { cf.UpdateBatch(allocItems, 1) }},
		{"pyramid", py.Increment, func(x uint64) { _ = py.Query(x) },
			func() { py.UpdateBatch(allocItems, 1) }},
	} {
		s.bat()
		i := 0
		assertZeroAllocs(t, s.tag+"/Update", func() { s.one(allocItems[i%512]); i++ })
		assertZeroAllocs(t, s.tag+"/Query", func() { s.qry(allocItems[i%512]); i++ })
		assertZeroAllocs(t, s.tag+"/UpdateBatch", s.bat)
	}
}

func TestZeroAllocSharded(t *testing.T) {
	cm := MustBuild(ShardedBy(CountMinOf(Options{Width: 1 << 10, Seed: 1}), 4)).(*ShardedCountMin)
	cs := MustBuild(ShardedBy(CountSketchOf(Options{Width: 1 << 10, Seed: 1}), 4)).(*ShardedCountSketch)
	cm.IncrementBatch(allocItems)
	cs.IncrementBatch(allocItems)
	i := 0
	assertZeroAllocs(t, "sharded/countmin/Increment", func() { cm.Increment(allocItems[i%512]); i++ })
	assertZeroAllocs(t, "sharded/countmin/Query", func() { _ = cm.Query(allocItems[i%512]); i++ })
	assertZeroAllocs(t, "sharded/countsketch/Increment", func() { cs.Increment(allocItems[i%512]); i++ })
	assertZeroAllocs(t, "sharded/countsketch/Query", func() { _ = cs.Query(allocItems[i%512]); i++ })
}

// TestZeroAllocMonitor covers the heavy-hitter trackers: a steady-state
// Process is one fused conservative update plus, at most, a heap re-key or
// displacement — none of which may allocate. The windowed tracker's
// rotation interval is small enough that the measured runs cross bucket
// boundaries and reset candidate heaps.
func TestZeroAllocMonitor(t *testing.T) {
	opt := Options{Width: 1 << 10, Seed: 1}
	m := MustBuild(MonitorOf(opt, 64)).(*Monitor)
	wopt := opt
	wopt.Merge = MergeSum
	wm := MustBuild(Windowed(MonitorOf(wopt, 64), 4, 64)).(*WindowedMonitor)
	for _, s := range []struct {
		tag     string
		process func(uint64)
	}{
		{"monitor", m.Process},
		{"windowed-monitor", wm.Process},
	} {
		for _, x := range allocItems {
			s.process(x)
		}
		i := 0
		assertZeroAllocs(t, s.tag+"/Process", func() { s.process(allocItems[i%512]); i++ })
	}
}

// TestZeroAllocCopyInto pins CopyInto between built sketches of one spec,
// the copy a push cut makes into its recycled sketches, to no allocation.
func TestZeroAllocCopyInto(t *testing.T) {
	for _, spec := range []Spec{
		CountMinOf(Options{Width: 1 << 10, Merge: MergeSum, Seed: 1}),
		CountSketchOf(Options{Width: 1 << 10, Seed: 1}),
	} {
		src, dst := MustBuild(spec), MustBuild(spec)
		src.UpdateBatch(allocItems, 1)
		assertZeroAllocs(t, fmt.Sprintf("CopyInto(%T)", dst), func() {
			if err := CopyInto(dst, src); err != nil {
				t.Fatal(err)
			}
		})
	}
}
