package topk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestHeapBasics(t *testing.T) {
	h := New(3)
	if h.Cap() != 3 || h.Len() != 0 || h.Min() != 0 {
		t.Fatal("fresh heap wrong")
	}
	h.Offer(1, 10)
	h.Offer(2, 5)
	h.Offer(3, 7)
	if h.Len() != 3 || h.Min() != 5 {
		t.Fatalf("Len %d Min %d", h.Len(), h.Min())
	}
	// 4 displaces the minimum (2).
	h.Offer(4, 6)
	if h.Contains(2) || !h.Contains(4) {
		t.Fatal("displacement wrong")
	}
	// Too-small estimates are ignored.
	h.Offer(5, 1)
	if h.Contains(5) {
		t.Fatal("small item admitted")
	}
	items := h.Items()
	if items[0].Item != 1 || items[1].Item != 3 || items[2].Item != 4 {
		t.Fatalf("Items order wrong: %v", items)
	}
}

func TestHeapRekey(t *testing.T) {
	h := New(2)
	h.Offer(1, 10)
	h.Offer(2, 20)
	h.Offer(1, 30) // re-key upward
	if c, _ := h.Count(1); c != 30 {
		t.Fatalf("Count(1) = %d", c)
	}
	if h.Min() != 20 {
		t.Fatalf("Min = %d", h.Min())
	}
	h.Offer(3, 25) // displaces 2
	if h.Contains(2) || !h.Contains(3) {
		t.Fatal("displacement after rekey wrong")
	}
}

func TestHeapAgainstSortOracle(t *testing.T) {
	// Feeding monotone non-decreasing estimates per item (the CMS/CUS heavy
	// hitter pattern), the heap must end up with the k items of largest
	// final estimate.
	const k = 16
	const universe = 400
	rng := rand.New(rand.NewSource(77))
	h := New(k)
	final := make([]int64, universe)
	for op := 0; op < 50000; op++ {
		item := uint64(rng.Intn(universe))
		final[item] += int64(rng.Intn(5)) + 1
		h.Offer(item, final[item])
	}
	type pair struct {
		item uint64
		f    int64
	}
	all := make([]pair, universe)
	for i := range all {
		all[i] = pair{uint64(i), final[i]}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].f > all[j].f })
	// Every item strictly above the k-th largest estimate must be present.
	kth := all[k-1].f
	for _, p := range all[:k] {
		if p.f > kth && !h.Contains(p.item) {
			t.Fatalf("item %d with final %d missing from heap", p.item, p.f)
		}
	}
	items := h.Items()
	if len(items) != k {
		t.Fatalf("heap has %d items", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i-1].Count < items[i].Count {
			t.Fatal("Items not sorted descending")
		}
	}
}

func TestHeapZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

// TestHeapDeterministicTieBreak pins the (Count, Item) total order: the
// tracked set after a sequence of offers is a pure function of the offered
// (item, estimate) pairs, independent of arrival order, and under count ties
// the smaller item ids win.
func TestHeapDeterministicTieBreak(t *testing.T) {
	const k = 4
	offers := []Entry{
		{Item: 10, Count: 5}, {Item: 11, Count: 5}, {Item: 12, Count: 5},
		{Item: 13, Count: 5}, {Item: 14, Count: 5}, {Item: 15, Count: 5},
		{Item: 16, Count: 9},
	}
	want := []Entry{{16, 9}, {10, 5}, {11, 5}, {12, 5}}
	rng := uint64(0x9e3779b97f4a7c15)
	perm := append([]Entry(nil), offers...)
	for trial := 0; trial < 50; trial++ {
		// Fisher-Yates with a splitmix64 step for reproducibility.
		for i := len(perm) - 1; i > 0; i-- {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			j := int(z % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		h := New(k)
		for _, e := range perm {
			h.Offer(e.Item, e.Count)
		}
		got := h.Items()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Items()[%d] = %+v, want %+v (order-dependent eviction)", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRankCutAbove pins the answer helpers: Rank orders higher counts
// first and equal counts by smaller item, Cut keeps at most k entries, and
// Above keeps the prefix at or above the threshold, nil when none is.
func TestRankCutAbove(t *testing.T) {
	es := []Entry{{7, 2}, {3, 5}, {9, 5}, {1, -1}, {4, 2}, {2, 5}}
	Rank(es)
	want := []Entry{{2, 5}, {3, 5}, {9, 5}, {4, 2}, {7, 2}, {1, -1}}
	if !slices.Equal(es, want) {
		t.Fatalf("Rank = %v, want %v", es, want)
	}
	if got := Cut(es, 2); !slices.Equal(got, want[:2]) {
		t.Fatalf("Cut(2) = %v", got)
	}
	if got := Cut(es, 10); len(got) != len(es) {
		t.Fatalf("Cut(10) = %v", got)
	}
	for _, c := range []struct {
		threshold float64
		n         int
	}{{5, 3}, {4.5, 3}, {2, 5}, {-1, 6}, {-2, 6}, {6, 0}, {math.NaN(), 0}} {
		got := Above(es, c.threshold)
		if !slices.Equal(got, want[:c.n]) || (c.n == 0) != (got == nil) {
			t.Fatalf("Above(%v) = %#v, want %v", c.threshold, got, want[:c.n])
		}
	}
}
