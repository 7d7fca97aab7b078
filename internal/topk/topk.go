// Package topk implements the min-heap of highest-estimate items used for
// heavy-hitter and top-k tracking alongside a sketch (§III, "Finding Heavy
// Hitters"): on each arrival the item is queried and the heap is updated if
// its estimate beats the current minimum.
package topk

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Entry is an item together with its tracked estimate.
type Entry struct {
	Item  uint64
	Count int64
}

// Heap is a capacity-bounded min-heap over estimates with O(1) membership
// lookup. The zero value is not usable; call New.
//
// Ordering is the total order on (Count, Item) that ranks higher counts
// first and, among equal counts, smaller item ids first — the ranking Rank
// gives every heavy-hitter answer. Eviction under count ties is therefore deterministic: the
// tracked set after any Offer sequence depends only on the multiset of
// (item, estimate) pairs offered, not on arrival order, so concurrent-ingest
// tests can assert exact heavy-hitter sets.
type Heap struct {
	k       int
	entries []Entry
	pos     map[uint64]int
}

// CountOf converts a frequency estimate into a count, saturating at
// MaxInt64: an estimate at or above 2^63 would otherwise wrap negative and
// rank below every real count. Saturating keeps non-decreasing estimates
// non-decreasing as counts.
func CountOf(est uint64) int64 { return int64(min(est, math.MaxInt64)) }

// New returns a heap tracking the k items with the largest estimates.
func New(k int) *Heap {
	if k <= 0 {
		panic("topk: non-positive capacity")
	}
	return &Heap{k: k, pos: make(map[uint64]int, k)}
}

// Cap returns the heap capacity k.
func (h *Heap) Cap() int { return h.k }

// Reset drops every tracked item, reusing the backing storage (used when a
// sliding-window bucket rotates out).
func (h *Heap) Reset() {
	h.entries = h.entries[:0]
	clear(h.pos)
}

// Len returns the number of tracked items.
func (h *Heap) Len() int { return len(h.entries) }

// Full reports whether the heap tracks k items, so that an untracked item
// enters only by displacing the minimum.
func (h *Heap) Full() bool { return len(h.entries) == h.k }

// Min returns the smallest tracked estimate, or 0 when empty.
func (h *Heap) Min() int64 {
	if len(h.entries) == 0 {
		return 0
	}
	return h.entries[0].Count
}

// Contains reports whether item is currently tracked.
func (h *Heap) Contains(item uint64) bool {
	_, ok := h.pos[item]
	return ok
}

// Count returns the tracked estimate for item and whether it is tracked.
func (h *Heap) Count(item uint64) (int64, bool) {
	i, ok := h.pos[item]
	if !ok {
		return 0, false
	}
	return h.entries[i].Count, true
}

// Offer updates the heap with a fresh estimate for item: tracked items are
// re-keyed, new items displace the minimum once the estimate exceeds it.
func (h *Heap) Offer(item uint64, count int64) {
	if i, ok := h.pos[item]; ok {
		h.entries[i].Count = count
		h.fix(i)
		return
	}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, Entry{item, count})
		h.pos[item] = len(h.entries) - 1
		h.up(len(h.entries) - 1)
		return
	}
	if !less(h.entries[0], Entry{item, count}) {
		return
	}
	delete(h.pos, h.entries[0].Item)
	h.entries[0] = Entry{item, count}
	h.pos[item] = 0
	h.down(0)
}

// Snapshot returns a copy of the tracked entries in internal heap-array
// order. Together with Restore it round-trips a heap bit-for-bit, which
// serialization relies on for byte-identical re-marshal.
func (h *Heap) Snapshot() []Entry {
	out := make([]Entry, len(h.entries))
	copy(out, h.entries)
	return out
}

// Restore returns a heap of capacity k holding entries verbatim in
// heap-array order (as produced by Snapshot). The membership index is
// rebuilt; duplicate items or k < len(entries) are rejected so hostile
// payloads cannot construct an inconsistent heap. Allocation is
// proportional to len(entries), not k.
func Restore(k int, entries []Entry) (*Heap, error) {
	if k <= 0 {
		return nil, errors.New("topk: non-positive capacity")
	}
	if len(entries) > k {
		return nil, fmt.Errorf("topk: %d entries exceed capacity %d", len(entries), k)
	}
	h := &Heap{
		k:       k,
		entries: append([]Entry(nil), entries...),
		pos:     make(map[uint64]int, len(entries)),
	}
	for i, e := range h.entries {
		if _, dup := h.pos[e.Item]; dup {
			return nil, fmt.Errorf("topk: duplicate item %d", e.Item)
		}
		h.pos[e.Item] = i
	}
	// Entries from Snapshot already satisfy the heap invariant; re-fix
	// anyway so a hand-built order still behaves as a min-heap.
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h, nil
}

// Items returns the tracked entries ranked by Rank, the one place that
// orders heavy-hitter answers.
func (h *Heap) Items() []Entry {
	out := make([]Entry, len(h.entries))
	copy(out, h.entries)
	Rank(out)
	return out
}

// Rank sorts es in place into the order every heavy-hitter answer uses:
// higher count first, equal counts by smaller item — the reverse of less.
func Rank(es []Entry) {
	sort.Slice(es, func(i, j int) bool { return less(es[j], es[i]) })
}

// Cut returns the first k entries of ranked es, or all of them when there
// are at most k.
func Cut(es []Entry, k int) []Entry {
	return es[:min(len(es), k)]
}

// Above returns the prefix of ranked es whose counts are at least
// threshold, or nil when none is. No count is at least a NaN threshold.
func Above(es []Entry, threshold float64) []Entry {
	n := 0
	for n < len(es) && float64(es[n].Count) >= threshold {
		n++
	}
	if n == 0 {
		return nil
	}
	return es[:n]
}

func (h *Heap) fix(i int) {
	h.down(i)
	h.up(i)
}

// less reports whether a ranks strictly below b: lower count, or — under a
// count tie — larger item id (Items ranks equal counts by ascending id, so
// the largest id is the weakest entry and the first evicted).
func less(a, b Entry) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Item > b.Item
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.entries[i], h.entries[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(h.entries[l], h.entries[smallest]) {
			smallest = l
		}
		if r < n && less(h.entries[r], h.entries[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *Heap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.pos[h.entries[i].Item] = i
	h.pos[h.entries[j].Item] = j
}
