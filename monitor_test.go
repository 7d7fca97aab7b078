package salsa

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"salsa/internal/sketch"
	"salsa/internal/stream"
	"salsa/internal/topk"
)

// The heavy-hitter trackers take the conservative update's estimate from
// its raise pass and skip the heap for items below a full heap's minimum.
// These tests pin both against the reference rule the paper states — update,
// then Query, then Offer — by driving a tracker and a reference twin
// through the same stream and comparing heap arrays and envelope bytes.

// refOffer is the reference per-item step: update, re-query, offer.
func refOffer(sk *sketch.CMS, h *topk.Heap, item uint64, count int64) {
	sk.Update(item, count)
	h.Offer(item, topk.CountOf(sk.Query(item)))
}

// monitorStreams are the traces the equivalence tests run: a skewed one
// (NY18) and a flatter one (Univ2), long enough that the k=64 heaps fill
// and churn.
func monitorStreams() map[string][]uint64 {
	return map[string][]uint64{
		"NY18":  stream.NY18.Generate(40000, 7),
		"Univ2": stream.Univ2.Generate(40000, 8),
	}
}

// monitorWeight is the update weight of the j-th item: 1 to 3.
func monitorWeight(j int) int64 { return int64(1 + j%3) }

func checkHeapsEqual(t *testing.T, tag string, got, want *topk.Heap) {
	t.Helper()
	if g, w := got.Snapshot(), want.Snapshot(); !slices.Equal(g, w) {
		t.Fatalf("%s: heap arrays differ:\n got  %v\n want %v", tag, g, w)
	}
}

func checkEnvelopesEqual(t *testing.T, tag string, got, want Sketch) {
	t.Helper()
	g, err1 := Marshal(got)
	w, err2 := Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v / %v", tag, err1, err2)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: envelope bytes differ from the reference", tag)
	}
}

func TestMonitorMatchesQueryOfferReference(t *testing.T) {
	configs := map[string]Options{
		"salsa/max":   {Merge: MergeMax},
		"salsa/sum":   {Merge: MergeSum},
		"salsa16/max": {CounterBits: 16, Merge: MergeMax},
		"baseline":    {Mode: ModeBaseline},
		"baseline8":   {Mode: ModeBaseline, CounterBits: 8},
		"tango":       {Mode: ModeTango},
	}
	for sname, data := range monitorStreams() {
		for cname, opt := range configs {
			opt.Width, opt.Seed = 1<<10, 5
			tag := sname + "/" + cname
			spec := MonitorOf(opt, 64)
			m := MustBuild(spec).(*Monitor)
			ref := MustBuild(spec).(*Monitor)
			half := len(data) / 2
			for j, x := range data[:half] {
				m.Update(x, monitorWeight(j))
				refOffer(ref.cm.sk, ref.heap, x, monitorWeight(j))
			}
			checkHeapsEqual(t, tag+"/half", m.heap, ref.heap)
			checkEnvelopesEqual(t, tag+"/half", m, ref)
			// Continue on a Monitor restored mid-stream: the decoded heap
			// and sketch must keep tracking exactly like the reference.
			env, err := Marshal(m)
			if err != nil {
				t.Fatalf("%s: marshal: %v", tag, err)
			}
			back, err := Unmarshal(env)
			if err != nil {
				t.Fatalf("%s: unmarshal: %v", tag, err)
			}
			m = back.(*Monitor)
			for j, x := range data[half:] {
				m.Update(x, monitorWeight(half+j))
				refOffer(ref.cm.sk, ref.heap, x, monitorWeight(half+j))
			}
			checkHeapsEqual(t, tag, m.heap, ref.heap)
			checkEnvelopesEqual(t, tag, m, ref)
			if m.heap.Len() != 64 {
				t.Fatalf("%s: heap holds %d items; the stream should fill it", tag, m.heap.Len())
			}
		}
	}
}

func TestWindowedMonitorMatchesQueryOfferReference(t *testing.T) {
	for sname, data := range monitorStreams() {
		for _, mode := range []Mode{ModeSALSA, ModeBaseline} {
			tag := fmt.Sprintf("%s/%s", sname, mode)
			// 4 buckets of 3000 items: the stream rotates about 13 times,
			// so every heap is reset and refilled repeatedly.
			spec := Windowed(MonitorOf(Options{Width: 1 << 10, Mode: mode, Merge: MergeSum, Seed: 3}, 64), 4, 3000)
			m := MustBuild(spec).(*WindowedMonitor)
			ref := MustBuild(spec).(*WindowedMonitor)
			for j, x := range data {
				m.Update(x, monitorWeight(j))
				ring := ref.w.ring
				refOffer(ring.Cur(), ref.heaps[ring.CurIndex()], x, monitorWeight(j))
				ring.Wrote(1)
			}
			if m.Rotations() < 10 {
				t.Fatalf("%s: only %d rotations", tag, m.Rotations())
			}
			for i := range m.heaps {
				checkHeapsEqual(t, fmt.Sprintf("%s/bucket%d", tag, i), m.heaps[i], ref.heaps[i])
			}
			checkEnvelopesEqual(t, tag, m, ref)
		}
	}
}

func TestEpochMonitorMatchesQueryOfferReference(t *testing.T) {
	for sname, data := range monitorStreams() {
		opt := Options{Width: 1 << 10, Merge: MergeSum, Seed: 9}
		m := MustBuild(EpochShardedBy(MonitorOf(opt, 64), 1)).(*EpochMonitor)
		w := m.NewWriter(64)
		// The reference replays one writer's epochs sequentially: a private
		// CU sketch and heap fed update→Query→Offer, drained into the view
		// by a merge and a re-offer of the candidates at merged estimates.
		ops := cmsRingOps(m.Options(), true)
		view := &Monitor{cm: &CountMin{sk: ops.New(), opt: m.Options(), conservative: true}, heap: topk.New(64)}
		priv, privHeap := ops.New(), topk.New(64)
		const epochItems = 2500
		for j, x := range data {
			w.Update(x, monitorWeight(j))
			refOffer(priv, privHeap, x, monitorWeight(j))
			if (j+1)%epochItems == 0 || j == len(data)-1 {
				w.Flush()
				m.Advance()
				view.cm.sk.MergeFrom(priv)
				for _, e := range privHeap.Items() {
					view.heap.Offer(e.Item, topk.CountOf(view.cm.sk.Query(e.Item)))
				}
				priv.Reset()
				privHeap.Reset()
				checkHeapsEqual(t, fmt.Sprintf("%s/drain%d", sname, j/epochItems), m.view.heap, view.heap)
			}
		}
		w.Close()
		checkEnvelopesEqual(t, sname, m.view, view)
	}
}

// TestOfferEstimateSkipsOnlyUntracked pins the fast-reject boundary: ties
// with the minimum still reach Offer (a smaller id wins the tie), and
// estimates past MaxInt64 count as MaxInt64, so they re-key a tracked item
// and displace the minimum instead of wrapping below it.
func TestOfferEstimateSkipsOnlyUntracked(t *testing.T) {
	h, ref := topk.New(2), topk.New(2)
	for _, o := range []struct{ item, est uint64 }{
		{10, 5}, {20, 7}, // fill
		{30, 4},         // below the minimum: skipped, and a no-op for Offer too
		{5, 5},          // ties the minimum with a smaller id: displaces item 10
		{20, 1 << 63},   // a tracked estimate past MaxInt64: re-keys at MaxInt64
		{50, 1<<63 + 1}, // past MaxInt64 too: displaces the minimum, item 5
	} {
		offerEstimate(h, o.item, o.est)
		ref.Offer(o.item, topk.CountOf(o.est))
		checkHeapsEqual(t, fmt.Sprintf("offer %d", o.item), h, ref)
		if o.item == 5 && (!h.Contains(5) || h.Contains(10)) {
			t.Fatalf("tie at the minimum was not offered: %v", h.Snapshot())
		}
	}
	want := []topk.Entry{{Item: 20, Count: math.MaxInt64}, {Item: 50, Count: math.MaxInt64}}
	if got := h.Items(); !slices.Equal(got, want) {
		t.Fatalf("Items() = %v, want %v", got, want)
	}
}

// TestMonitorsSaturatePastMaxInt64 pins that an estimate at or above 2^63
// ranks as MaxInt64 rather than wrapping to a negative count: item 1's
// estimate reaches 3·2^62, and it must stay tracked, first, ahead of items
// 2 and 3 that arrive after it into a k=2 heap. The epoch case feeds a
// writer, so the drain's re-offer at merged estimates runs too; the
// windowed case ranks candidates against the window view.
func TestMonitorsSaturatePastMaxInt64(t *testing.T) {
	opt := Options{Width: 1 << 10, Merge: MergeSum, Seed: 1}
	updates := []struct {
		item  uint64
		count int64
	}{{1, 1 << 62}, {1, 1 << 62}, {1, 1 << 62}, {2, 5}, {3, 7}}
	for _, tc := range []struct {
		name string
		run  func() []ItemCount
	}{
		{"monitor", func() []ItemCount {
			m := MustBuild(MonitorOf(opt, 2)).(*Monitor)
			for _, u := range updates {
				m.Update(u.item, u.count)
			}
			return m.Top()
		}},
		{"epoch", func() []ItemCount {
			m := MustBuild(EpochShardedBy(MonitorOf(opt, 2), 1)).(*EpochMonitor)
			w := m.NewWriter(len(updates))
			for _, u := range updates {
				w.Update(u.item, u.count)
			}
			w.Flush()
			m.Advance()
			w.Close()
			return m.Top()
		}},
		{"windowed", func() []ItemCount {
			m := MustBuild(Windowed(MonitorOf(opt, 2), 4, 1000)).(*WindowedMonitor)
			for _, u := range updates {
				m.Update(u.item, u.count)
			}
			return m.Top()
		}},
	} {
		want := []ItemCount{{1, math.MaxInt64}, {3, 7}}
		if got := tc.run(); !slices.Equal(got, want) {
			t.Errorf("%s: Top() = %v, want %v", tc.name, got, want)
		}
	}
}
