package salsa

import (
	"math"
	"testing"

	"salsa/internal/stream"
)

func TestCountMinModes(t *testing.T) {
	data := stream.Zipf(40000, 2000, 1.0, 1)
	exact := stream.NewExact()
	for _, x := range data {
		exact.Observe(x)
	}
	for _, opt := range []Options{
		{Width: 512},
		{Width: 512, Mode: ModeBaseline},
		{Width: 512, Mode: ModeTango},
		{Width: 512, CompactEncoding: true},
		{Width: 512, Merge: MergeSum},
		{Width: 512, CounterBits: 4},
	} {
		cm := MustBuild(CountMinOf(opt)).(*CountMin)
		for _, x := range data {
			cm.Increment(x)
		}
		for x, f := range exact.Counts() {
			if est := cm.Query(x); est < f {
				t.Fatalf("%v: item %d underestimated: %d < %d", opt, x, est, f)
			}
		}
	}
}

func TestCountMinDefaults(t *testing.T) {
	cm := MustBuild(CountMinOf(Options{Width: 256})).(*CountMin)
	if cm.Depth() != 4 || cm.Width() != 256 {
		t.Fatalf("geometry %dx%d", cm.Depth(), cm.Width())
	}
	o := cm.Options()
	if o.Mode != ModeSALSA || o.CounterBits != 8 || o.Merge != MergeMax {
		t.Fatalf("defaults wrong: %+v", o)
	}
	b := MustBuild(CountMinOf(Options{Width: 256, Mode: ModeBaseline})).(*CountMin)
	if b.Options().CounterBits != 32 {
		t.Fatal("baseline default should be 32-bit")
	}
	if b.MemoryBits() != 4*256*32 {
		t.Fatalf("MemoryBits = %d", b.MemoryBits())
	}
}

func TestConservativeUpdateMoreAccurate(t *testing.T) {
	data := stream.Zipf(100000, 3000, 1.0, 2)
	exact := stream.NewExact()
	cm := MustBuild(CountMinOf(Options{Width: 256, Seed: 3})).(*CountMin)
	cu := MustBuild(ConservativeOf(Options{Width: 256, Seed: 3})).(*CountMin)
	for _, x := range data {
		exact.Observe(x)
		cm.Increment(x)
		cu.Increment(x)
	}
	var cmErr, cuErr float64
	for x, f := range exact.Counts() {
		cmErr += float64(cm.Query(x) - f)
		cuErr += float64(cu.Query(x) - f)
		if cu.Query(x) < f {
			t.Fatalf("CUS underestimates item %d", x)
		}
	}
	if cuErr > cmErr {
		t.Fatalf("CUS total error %f worse than CMS %f", cuErr, cmErr)
	}
}

func TestSalsaBeatsBaselineAtEqualMemory(t *testing.T) {
	// The headline claim: at (approximately) equal memory, SALSA's 4×
	// more counters beat the 32-bit baseline on skewed streams.
	data := stream.Zipf(200000, 20000, 1.0, 4)
	exact := stream.NewExact()
	baseline := MustBuild(CountMinOf(Options{Width: 512, Mode: ModeBaseline, Seed: 5})).(*CountMin)
	// Equal counter memory: 512·32 bits = 2048·8 bits (plus 1/8 overhead).
	salsaSketch := MustBuild(CountMinOf(Options{Width: 2048, Seed: 5})).(*CountMin)
	for _, x := range data {
		exact.Observe(x)
		baseline.Increment(x)
		salsaSketch.Increment(x)
	}
	var bErr, sErr float64
	for x, f := range exact.Counts() {
		db := float64(baseline.Query(x) - f)
		ds := float64(salsaSketch.Query(x) - f)
		bErr += db * db
		sErr += ds * ds
	}
	if sErr >= bErr {
		t.Fatalf("SALSA MSE %f not better than baseline %f", sErr, bErr)
	}
}

func TestKeyBytes(t *testing.T) {
	if KeyBytes([]byte("a")) == KeyBytes([]byte("b")) {
		t.Fatal("distinct keys collide")
	}
	if KeyString("flow") != KeyBytes([]byte("flow")) {
		t.Fatal("KeyString inconsistent with KeyBytes")
	}
	cm := MustBuild(CountMinOf(Options{Width: 1024})).(*CountMin)
	cm.UpdateBytes([]byte("10.0.0.1:443"), 3)
	if got := cm.QueryBytes([]byte("10.0.0.1:443")); got != 3 {
		t.Fatalf("QueryBytes = %d", got)
	}
}

func TestCountMinMergeSubtract(t *testing.T) {
	opt := Options{Width: 512, Merge: MergeSum, Seed: 9}
	a := MustBuild(CountMinOf(opt)).(*CountMin)
	b := MustBuild(CountMinOf(opt)).(*CountMin)
	a.Update(1, 10)
	b.Update(1, 5)
	b.Update(2, 7)
	a.Merge(b)
	if a.Query(1) < 15 || a.Query(2) < 7 {
		t.Fatal("merge lost counts")
	}
	a.Subtract(b)
	if a.Query(1) < 10 {
		t.Fatal("subtract removed too much")
	}
}

func TestMonitorTracksHeavyHitters(t *testing.T) {
	data := stream.Zipf(80000, 5000, 1.2, 11)
	exact := stream.NewExact()
	m := MustBuild(MonitorOf(Options{Width: 1024, Seed: 12}, 32)).(*Monitor)
	for _, x := range data {
		exact.Observe(x)
		m.Process(x)
	}
	top := m.Top()
	if len(top) != 32 {
		t.Fatalf("tracked %d items", len(top))
	}
	// The true top-10 must be present.
	tracked := map[uint64]bool{}
	for _, e := range top {
		tracked[e.Item] = true
	}
	for _, x := range exact.TopK(10) {
		if !tracked[x] {
			t.Fatalf("true heavy hitter %d missing", x)
		}
	}
	hh := m.HeavyHitters(0.01, exact.Volume())
	for _, e := range hh {
		if float64(e.Count) < 0.01*float64(exact.Volume()) {
			t.Fatal("HeavyHitters returned a light item")
		}
	}
}

func TestCountSketchBasics(t *testing.T) {
	for _, opt := range []Options{
		{Width: 4096},
		{Width: 4096, Mode: ModeBaseline},
		{Width: 4096, CompactEncoding: true},
	} {
		cs := MustBuild(CountSketchOf(opt)).(*CountSketch)
		if cs.Depth() != 5 {
			t.Fatalf("default depth = %d", cs.Depth())
		}
		cs.Update(1, 100)
		cs.Update(2, -40)
		if cs.Query(1) != 100 || cs.Query(2) != -40 {
			t.Fatalf("queries: %d %d", cs.Query(1), cs.Query(2))
		}
	}
}

func TestCountSketchRejectsBadOptions(t *testing.T) {
	for _, fn := range []func(){
		func() { MustBuild(CountSketchOf(Options{Width: 128, Mode: ModeTango})) },
		func() { MustBuild(CountSketchOf(Options{Width: 128, Merge: MergeMax})) },
		func() { MustBuild(CountSketchOf(Options{Width: 100})) },
		func() { MustBuild(CountMinOf(Options{Width: 0})) },
		func() { NewChangeDetector(Options{Width: 128, Merge: MergeMax}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTopKTracker(t *testing.T) {
	data := stream.Zipf(60000, 3000, 1.2, 13)
	exact := stream.NewExact()
	tk := MustBuild(TopKOf(Options{Width: 2048, Seed: 14}, 16)).(*TopK)
	for _, x := range data {
		exact.Observe(x)
		tk.Process(x)
	}
	got := tk.Top()
	tracked := map[uint64]bool{}
	for _, e := range got {
		tracked[e.Item] = true
	}
	hits := 0
	for _, x := range exact.TopK(16) {
		if tracked[x] {
			hits++
		}
	}
	if hits < 12 {
		t.Fatalf("only %d/16 true top items tracked", hits)
	}
}

func TestChangeDetector(t *testing.T) {
	d := NewChangeDetector(Options{Width: 4096, Seed: 15})
	for i := 0; i < 10; i++ {
		d.ObserveBefore(1)
	}
	for i := 0; i < 3; i++ {
		d.ObserveAfter(1)
		d.ObserveBefore(2)
	}
	for i := 0; i < 9; i++ {
		d.ObserveAfter(3)
	}
	if got := d.Change(1); got != -7 {
		t.Fatalf("Change(1) = %d, want -7", got)
	}
	if got := d.Change(2); got != -3 {
		t.Fatalf("Change(2) = %d, want -3", got)
	}
	if got := d.Change(3); got != 9 {
		t.Fatalf("Change(3) = %d, want 9", got)
	}
}

func TestChangeDetectorSealsAfterDiff(t *testing.T) {
	d := NewChangeDetector(Options{Width: 128, Seed: 1})
	d.ObserveBefore(1)
	_ = d.Change(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on observe-after-diff")
		}
	}()
	d.ObserveAfter(2)
}

func TestDistinctEstimate(t *testing.T) {
	cm := MustBuild(CountMinOf(Options{Width: 1 << 14, Seed: 16})).(*CountMin)
	data := stream.Zipf(30000, 4000, 0.8, 17)
	exact := stream.NewExact()
	for _, x := range data {
		exact.Observe(x)
		cm.Increment(x)
	}
	est, err := cm.Distinct()
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(exact.Distinct())
	if math.Abs(est-truth)/truth > 0.1 {
		t.Fatalf("distinct estimate %f vs %f", est, truth)
	}
}

func TestUnivMonFacade(t *testing.T) {
	um := MustBuild(UnivMonOf(Options{Width: 512, Seed: 18}, 10, 0)).(*UnivMon)
	data := stream.Zipf(60000, 2000, 1.0, 19)
	exact := stream.NewExact()
	for _, x := range data {
		exact.Observe(x)
		um.Process(x)
	}
	if um.Volume() != uint64(len(data)) {
		t.Fatal("volume wrong")
	}
	if rel := math.Abs(um.Entropy()-exact.Entropy()) / exact.Entropy(); rel > 0.2 {
		t.Fatalf("entropy rel err %f", rel)
	}
	if um.Moment(1) != float64(len(data)) {
		t.Fatal("F1 should be exact")
	}
	if len(um.HeavyHitters()) == 0 {
		t.Fatal("no heavy hitters")
	}
	if um.MemoryBits() == 0 {
		t.Fatal("no memory accounted")
	}
}

func TestColdFilterFacade(t *testing.T) {
	cf := MustBuild(Filtered(ConservativeOf(Options{Width: 512, Seed: 20}))).(*ColdFilter)
	data := stream.Zipf(60000, 5000, 1.0, 21)
	exact := stream.NewExact()
	for _, x := range data {
		exact.Observe(x)
		cf.Process(x)
	}
	for x, f := range exact.Counts() {
		if est := cf.Query(x); est < f {
			t.Fatalf("item %d: %d < %d", x, est, f)
		}
	}
	if cf.MemoryBits() == 0 {
		t.Fatal("no memory accounted")
	}
}

func TestAEEFacades(t *testing.T) {
	a := MustBuild(AEEOf(Options{Mode: ModeBaseline, Width: 512, Seed: 22})).(*AEE)
	for i := 0; i < 50000; i++ {
		a.Process(uint64(i % 100))
	}
	if got := a.Query(5); got < 250 || got > 1000 {
		t.Fatalf("baseline AEE Query = %f, want ≈ 500", got)
	}
	if a.SampleProb() > 1 {
		t.Fatal("bad sample probability")
	}
	if a.MemoryBits() != 4*512*16 {
		t.Fatalf("MemoryBits = %d", a.MemoryBits())
	}
	s := MustBuild(AEEOf(Options{Width: 512, Seed: 23})).(*AEE)
	for i := 0; i < 50000; i++ {
		s.Process(uint64(i % 100))
	}
	if got := s.Query(5); got < 250 || got > 1000 {
		t.Fatalf("SALSA AEE Query = %f", got)
	}
}

func TestModeString(t *testing.T) {
	if ModeSALSA.String() != "salsa" || ModeBaseline.String() != "baseline" || ModeTango.String() != "tango" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}
