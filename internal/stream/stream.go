// Package stream provides the workload generators used by the evaluation:
// Zipfian streams with configurable skew and deterministic synthetic
// stand-ins for the paper's four real traces, plus an exact-counting oracle
// for ground truth. The traces themselves are not redistributable, so each
// is replaced by a seeded Zipf stream whose skew and volume-to-distinct
// ratio match the trace's (see the Dataset values below).
package stream

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf returns n items drawn i.i.d. from a Zipf(alpha) distribution over a
// universe of u items, deterministically for a given seed. Item identifiers
// are scrambled so that an item's rank carries no relation to its id.
func Zipf(n, u int, alpha float64, seed uint64) []uint64 {
	if n < 0 || u <= 0 {
		panic("stream: invalid Zipf parameters")
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	cdf := make([]float64, u)
	total := 0.0
	for k := 0; k < u; k++ {
		total += math.Pow(float64(k+1), -alpha)
		cdf[k] = total
	}
	out := make([]uint64, n)
	for i := range out {
		x := rng.Float64() * total
		rank := sort.SearchFloat64s(cdf, x)
		if rank >= u {
			rank = u - 1
		}
		out[i] = scramble(uint64(rank), seed)
	}
	return out
}

// scramble maps ranks to pseudo-random 64-bit ids, bijectively per seed.
func scramble(rank, seed uint64) uint64 {
	z := rank + 0x9e3779b97f4a7c15 + seed*0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Dataset is a named synthetic stand-in for one of the paper's traces.
type Dataset struct {
	// Name of the original trace this dataset substitutes for.
	Name string
	// Alpha is the Zipf skew matched to the trace.
	Alpha float64
	// UniverseDiv sets the universe as n/UniverseDiv (matched to the
	// trace's distinct-to-volume ratio); ignored when FixedUniverse > 0.
	UniverseDiv int
	// FixedUniverse, when positive, pins the universe size regardless of n
	// (used for the YouTube video-id universe).
	FixedUniverse int
}

// Universe returns the universe size for a stream of n updates.
func (d Dataset) Universe(n int) int {
	if d.FixedUniverse > 0 {
		return d.FixedUniverse
	}
	u := n / d.UniverseDiv
	if u < 1024 {
		u = 1024
	}
	return u
}

// Generate returns a deterministic n-update unit-weight stream.
func (d Dataset) Generate(n int, seed uint64) []uint64 {
	return Zipf(n, d.Universe(n), d.Alpha, seed)
}

// The four trace stand-ins. Volume-to-distinct ratios follow
// the counts the paper reports (NY18: 6.5M distinct / 98M; CH16: 2.5M/98M).
var (
	NY18    = Dataset{Name: "NY18", Alpha: 1.1, UniverseDiv: 15}
	CH16    = Dataset{Name: "CH16", Alpha: 1.0, UniverseDiv: 40}
	Univ2   = Dataset{Name: "Univ2", Alpha: 0.7, UniverseDiv: 8}
	YouTube = Dataset{Name: "YouTube", Alpha: 0.99, FixedUniverse: 40000}
)

// Datasets returns the four trace stand-ins in the order the paper plots
// them.
func Datasets() []Dataset { return []Dataset{NY18, CH16, Univ2, YouTube} }

// ByName returns the dataset with the given name.
func ByName(name string) (Dataset, bool) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Exact is the ground-truth oracle: exact frequencies, volume, and the
// frequency-vector statistics the evaluation compares against.
type Exact struct {
	counts map[uint64]uint64
	volume uint64
}

// NewExact returns an empty oracle.
func NewExact() *Exact {
	return &Exact{counts: make(map[uint64]uint64)}
}

// Observe records one unit-weight arrival and returns the item's updated
// true frequency (the on-arrival ground truth).
func (e *Exact) Observe(x uint64) uint64 {
	e.counts[x]++
	e.volume++
	return e.counts[x]
}

// Count returns the exact frequency of x.
func (e *Exact) Count(x uint64) uint64 { return e.counts[x] }

// Volume returns the total stream volume N.
func (e *Exact) Volume() uint64 { return e.volume }

// Distinct returns the number of distinct items F0.
func (e *Exact) Distinct() int { return len(e.counts) }

// Counts exposes the exact frequency map (read-only by convention).
func (e *Exact) Counts() map[uint64]uint64 { return e.counts }

// SortedItems returns every distinct observed item in ascending order —
// the deterministic iteration the seeded harnesses use instead of map
// ranges, so a failing assertion always reports the same item first.
func (e *Exact) SortedItems() []uint64 {
	items := make([]uint64, 0, len(e.counts))
	for x := range e.counts {
		items = append(items, x)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// Entropy returns the empirical entropy Σ (f/N)·log2(N/f) of the frequency
// vector.
func (e *Exact) Entropy() float64 {
	n := float64(e.volume)
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, f := range e.counts {
		p := float64(f) / n
		h -= p * math.Log2(p)
	}
	return h
}

// Moment returns the frequency moment Fp = Σ f^p.
func (e *Exact) Moment(p float64) float64 {
	total := 0.0
	for _, f := range e.counts {
		total += math.Pow(float64(f), p)
	}
	return total
}

// L2 returns the second norm of the frequency vector.
func (e *Exact) L2() float64 { return math.Sqrt(e.Moment(2)) }

// TopK returns the k items with the highest exact frequency, in descending
// order (ties broken by item id for determinism).
func (e *Exact) TopK(k int) []uint64 {
	type pair struct {
		item uint64
		f    uint64
	}
	all := make([]pair, 0, len(e.counts))
	for x, f := range e.counts {
		all = append(all, pair{x, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].item < all[j].item
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].item
	}
	return out
}

// HeavyHitters returns all items with frequency ≥ phi·N, the paper's
// heavy-hitter definition.
func (e *Exact) HeavyHitters(phi float64) []uint64 {
	threshold := phi * float64(e.volume)
	var out []uint64
	for x, f := range e.counts {
		if float64(f) >= threshold {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
