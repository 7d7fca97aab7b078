package salsa

import (
	"math"
	"slices"
	"sort"
	"testing"

	"salsa/internal/topk"
)

// Every heavy-hitter answer ranks a tracker's candidates by descending
// estimate, equal estimates by ascending item, cuts Top at k and keeps the
// candidates at or above a share threshold. These tests hold each tracker's
// answers to a reference that ranks what the tracker holds with a stable
// sort of its own.

// rankStep is one step of a ranking stream: count unit updates of item, or
// with tick set, one window rotation.
type rankStep struct {
	item  uint64
	count int
	tick  bool
}

// rankStreams are the ranking cases. Each non-empty stream has volume 64,
// so at[i]/64 is an exact share whose threshold equals a candidate's count.
var rankStreams = []struct {
	name  string
	steps []rankStep
	at    []int64
}{
	{name: "empty"},
	{
		name: "equal-counts",
		steps: []rankStep{
			{item: 6, count: 8}, {item: 2, count: 8}, {item: 8, count: 8}, {item: 1, count: 8},
			{item: 5, count: 8}, {item: 3, count: 8}, {item: 7, count: 8}, {item: 4, count: 8},
		},
		at: []int64{8},
	},
	{
		name: "at-threshold",
		steps: []rankStep{
			{item: 9, count: 4}, {item: 4, count: 8}, {item: 30, count: 24}, {item: 2, count: 8},
			{item: 11, count: 16}, {item: 3, count: 4},
		},
		at: []int64{8, 16, 24},
	},
	{
		name: "k-below-candidates",
		steps: []rankStep{
			{item: 1, count: 9}, {item: 2, count: 9}, {item: 3, count: 7}, {item: 4, count: 6},
			{item: 5, count: 5}, {item: 6, count: 4}, {tick: true},
			{item: 7, count: 8}, {item: 8, count: 6}, {item: 9, count: 4}, {item: 10, count: 3},
			{item: 11, count: 2}, {item: 12, count: 1},
		},
		at: []int64{6, 9},
	},
}

// rankTracker is a heavy-hitter tracker seen through its answers and
// through what it holds.
type rankTracker struct {
	update func(item uint64)
	tick   func()
	// top and hh are the tracker's answers; hh is nil for a tracker
	// without a share threshold.
	top func() []ItemCount
	hh  func(phi float64) []ItemCount
	// volume is what hh multiplies the share by; cands returns every
	// candidate with the estimate the tracker ranks it by, in no order.
	volume func() uint64
	cands  func() []ItemCount
	// k cuts Top (0: Top returns every candidate); emptyTopNil says Top
	// returns nil rather than an empty slice with no candidates.
	k           int
	emptyTopNil bool
}

func heapCands(hs ...*topk.Heap) []ItemCount {
	var out []ItemCount
	for _, h := range hs {
		for _, e := range h.Snapshot() {
			out = append(out, ItemCount{Item: e.Item, Count: e.Count})
		}
	}
	return out
}

// windowCands is the union of a windowed monitor's bucket candidates, each
// re-estimated against the whole window.
func windowCands(m *WindowedMonitor) []ItemCount {
	seen := map[uint64]bool{}
	var out []ItemCount
	for _, c := range heapCands(m.heaps...) {
		if !seen[c.Item] {
			seen[c.Item] = true
			out = append(out, ItemCount{Item: c.Item, Count: topk.CountOf(m.Query(c.Item))})
		}
	}
	return out
}

const rankK = 4

func rankTrackers() map[string]func() rankTracker {
	opt := Options{Width: 1 << 12, Seed: 11}
	return map[string]func() rankTracker{
		"Monitor": func() rankTracker {
			m := MustBuild(MonitorOf(opt, rankK)).(*Monitor)
			var vol uint64
			return rankTracker{
				update: func(x uint64) { m.Process(x); vol++ },
				top:    m.Top,
				hh:     func(phi float64) []ItemCount { return m.HeavyHitters(phi, vol) },
				volume: func() uint64 { return vol },
				cands:  func() []ItemCount { return heapCands(m.heap) },
			}
		},
		"TopK": func() rankTracker {
			m := MustBuild(TopKOf(opt, rankK)).(*TopK)
			return rankTracker{
				update: m.Process,
				top:    m.Top,
				cands:  func() []ItemCount { return heapCands(m.heap) },
			}
		},
		"UnivMon": func() rankTracker {
			m := MustBuild(UnivMonOf(opt, 4, rankK)).(*UnivMon)
			return rankTracker{
				update: m.Process,
				top:    m.HeavyHitters,
				cands:  func() []ItemCount { return heapCands(m.um.LevelHeap(0)) },
			}
		},
		"ShardedMonitor": func() rankTracker {
			s := MustBuild(ShardedBy(MonitorOf(opt, rankK), 2)).(*ShardedMonitor)
			var vol uint64
			return rankTracker{
				update: func(x uint64) { s.Increment(x); vol++ },
				top:    s.Top,
				hh:     func(phi float64) []ItemCount { return s.HeavyHitters(phi, vol) },
				volume: func() uint64 { return vol },
				cands:  func() []ItemCount { return heapCands(s.Shard(0).heap, s.Shard(1).heap) },
				k:      rankK, emptyTopNil: true,
			}
		},
		"WindowedMonitor": func() rankTracker {
			m := MustBuild(Windowed(MonitorOf(opt, rankK), 4, 0)).(*WindowedMonitor)
			return rankTracker{
				update: m.Process,
				tick:   m.Tick,
				top:    m.Top,
				hh:     m.HeavyHitters,
				volume: m.WindowVolume,
				cands:  func() []ItemCount { return windowCands(m) },
				k:      rankK, emptyTopNil: true,
			}
		},
		"ShardedWindowedMonitor": func() rankTracker {
			s := MustBuild(ShardedBy(Windowed(MonitorOf(opt, rankK), 4, 0), 2)).(*ShardedWindowedMonitor)
			return rankTracker{
				update: s.Increment,
				tick:   s.Tick,
				top:    s.Top,
				hh:     s.HeavyHitters,
				volume: s.WindowVolume,
				cands:  func() []ItemCount { return append(windowCands(s.Shard(0)), windowCands(s.Shard(1))...) },
				k:      rankK, emptyTopNil: true,
			}
		},
		"EpochMonitor": func() rankTracker {
			m := MustBuild(EpochShardedBy(MonitorOf(opt, rankK), 2)).(*EpochMonitor)
			w := m.NewWriter(1)
			var vol uint64
			return rankTracker{
				update: func(x uint64) { w.Increment(x); vol++ },
				tick:   m.Advance,
				top:    func() []ItemCount { w.Flush(); m.Advance(); return m.Top() },
				hh: func(phi float64) []ItemCount {
					w.Flush()
					m.Advance()
					return m.HeavyHitters(phi, vol)
				},
				volume: func() uint64 { return vol },
				cands:  func() []ItemCount { w.Flush(); m.Advance(); return heapCands(m.view.heap) },
			}
		},
	}
}

// rankRef ranks cands by descending count, equal counts by ascending item:
// a stable sort by item, then a stable sort by count.
func rankRef(cands []ItemCount) []ItemCount {
	out := slices.Clone(cands)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// aboveRef keeps the ranked entries whose count is at least threshold, nil
// when none is.
func aboveRef(ranked []ItemCount, threshold float64) []ItemCount {
	var out []ItemCount
	for _, e := range ranked {
		if float64(e.Count) >= threshold {
			out = append(out, e)
		}
	}
	return out
}

func checkAnswer(t *testing.T, tag string, got, want []ItemCount) {
	t.Helper()
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s = %#v, want %#v", tag, got, want)
	}
}

func TestHeavyHitterAnswersRankEstimates(t *testing.T) {
	for tname, build := range rankTrackers() {
		for _, st := range rankStreams {
			t.Run(tname+"/"+st.name, func(t *testing.T) {
				tr := build()
				for _, s := range st.steps {
					if s.tick {
						if tr.tick != nil {
							tr.tick()
						}
						continue
					}
					for range s.count {
						tr.update(s.item)
					}
				}
				ranked := rankRef(tr.cands())
				if st.name != "empty" && len(ranked) == 0 {
					t.Fatal("the tracker holds no candidates")
				}
				if st.name == "k-below-candidates" && tr.k > 0 && len(ranked) <= tr.k {
					t.Fatalf("%d candidates, want more than k=%d", len(ranked), tr.k)
				}
				want := ranked
				if tr.k > 0 && len(want) > tr.k {
					want = want[:tr.k]
				}
				if len(want) == 0 {
					want = []ItemCount{}
					if tr.emptyTopNil {
						want = nil
					}
				}
				checkAnswer(t, "Top()", tr.top(), want)
				if tr.hh == nil {
					return
				}
				vol := tr.volume()
				phis := []float64{0, 2}
				for _, c := range st.at {
					phi := float64(c) / float64(vol)
					if phi*float64(vol) != float64(c) {
						t.Fatalf("share %d/%d is not exact", c, vol)
					}
					phis = append(phis, phi)
				}
				for _, phi := range phis {
					checkAnswer(t, "HeavyHitters", tr.hh(phi), aboveRef(ranked, phi*float64(vol)))
				}
			})
		}
	}
}

// TestHeavyHittersNaNShare pins that a NaN share selects no heavy hitter,
// for every tracker with a share threshold: no count is at least NaN.
func TestHeavyHittersNaNShare(t *testing.T) {
	for tname, build := range rankTrackers() {
		tr := build()
		if tr.hh == nil {
			continue
		}
		for _, s := range rankStreams[2].steps {
			for range s.count {
				tr.update(s.item)
			}
		}
		if got := tr.hh(math.NaN()); got != nil {
			t.Errorf("%s: HeavyHitters(NaN) = %v, want nil", tname, got)
		}
	}
}
