// Package univmon implements the Universal Sketch (UnivMon, Liu et al.
// SIGCOMM 2016): a stack of Count Sketch instances over geometrically
// halving substreams, each paired with a top-k heap, from which any G-sum
// Σ G(f_x) in Stream-PolyLog — entropy, frequency moments, cardinality —
// is estimated with the Braverman–Ostrovsky recursive estimator.
//
// The paper's SALSA UnivMon is this sketch with SALSA Count Sketch rows.
package univmon

import (
	"fmt"
	"math"

	"salsa/internal/hashing"
	"salsa/internal/sketch"
	"salsa/internal/topk"
)

// Sketch is a UnivMon instance. Configure with the paper's defaults via
// New: 16 levels, d = 5 rows, heaps of 100.
type Sketch struct {
	levels     []level
	sampleSeed uint64
	volume     uint64
}

type level struct {
	cs   *sketch.CountSketch
	heap *topk.Heap
}

// Config sets the UnivMon geometry.
type Config struct {
	// Levels is the number of CS instances (16 in the paper's setup).
	Levels int
	// Depth and Width shape each Count Sketch (d = 5 in the paper).
	Depth, Width int
	// HeapK is the per-level heavy-hitter heap size (100 in the paper).
	HeapK int
	// Rows picks the CS row type (baseline or SALSA).
	Rows sketch.SignedRowSpec
	// Seed derives every hash seed.
	Seed uint64
}

// New returns an empty UnivMon sketch.
func New(cfg Config) *Sketch {
	if cfg.Levels <= 0 || cfg.HeapK <= 0 {
		panic("univmon: invalid geometry")
	}
	seeds := hashing.Seeds(cfg.Seed, cfg.Levels+1)
	levels := make([]level, cfg.Levels)
	for i := range levels {
		levels[i] = level{
			cs:   sketch.NewCountSketch(cfg.Depth, cfg.Width, cfg.Rows, seeds[i]),
			heap: topk.New(cfg.HeapK),
		}
	}
	return &Sketch{levels: levels, sampleSeed: seeds[cfg.Levels]}
}

// Restore rebuilds a sketch from serialized state: one decoded Count
// Sketch and heap per level, the sampling seed, and the volume odometer.
// The levels must agree on geometry and heap capacity; hostile payload
// combinations are errors, not panics.
func Restore(css []*sketch.CountSketch, heaps []*topk.Heap, sampleSeed, volume uint64) (*Sketch, error) {
	if len(css) == 0 || len(css) != len(heaps) {
		return nil, fmt.Errorf("univmon: %d sketches for %d heaps", len(css), len(heaps))
	}
	levels := make([]level, len(css))
	for i := range css {
		if css[i].Depth() != css[0].Depth() || css[i].Width() != css[0].Width() {
			return nil, fmt.Errorf("univmon: level %d geometry %d×%d does not match level 0's %d×%d",
				i, css[i].Depth(), css[i].Width(), css[0].Depth(), css[0].Width())
		}
		if heaps[i].Cap() != heaps[0].Cap() {
			return nil, fmt.Errorf("univmon: level %d heap capacity %d does not match level 0's %d",
				i, heaps[i].Cap(), heaps[0].Cap())
		}
		levels[i] = level{cs: css[i], heap: heaps[i]}
	}
	return &Sketch{levels: levels, sampleSeed: sampleSeed, volume: volume}, nil
}

// Levels returns the number of Count Sketch levels.
func (s *Sketch) Levels() int { return len(s.levels) }

// LevelSketch returns level j's Count Sketch for serialization.
func (s *Sketch) LevelSketch(j int) *sketch.CountSketch { return s.levels[j].cs }

// LevelHeap returns level j's heavy-hitter heap for serialization.
func (s *Sketch) LevelHeap(j int) *topk.Heap { return s.levels[j].heap }

// sampled reports whether x participates in level j: the j lowest bits of
// its sampling hash must all be one, halving the substream per level.
func (s *Sketch) sampled(x uint64, j int) bool {
	if j == 0 {
		return true
	}
	mask := uint64(1)<<uint(j) - 1
	return hashing.Mix64(x, s.sampleSeed)&mask == mask
}

// SizeBits returns the total footprint of all levels' sketches (heap
// bookkeeping excluded, as in the paper's accounting).
func (s *Sketch) SizeBits() int {
	total := 0
	for i := range s.levels {
		total += s.levels[i].cs.SizeBits()
	}
	return total
}

// Update processes one unit-weight arrival (Cash Register model).
func (s *Sketch) Update(x uint64) { s.UpdateWeighted(x, 1) }

// UpdateWeighted processes ⟨x, v⟩ with v ≥ 1: the whole weight lands on
// every level that samples x, as if v unit arrivals were processed.
func (s *Sketch) UpdateWeighted(x uint64, v int64) {
	if v < 0 {
		panic("univmon: negative update")
	}
	s.volume += uint64(v)
	for j := range s.levels {
		if !s.sampled(x, j) {
			break
		}
		lv := &s.levels[j]
		lv.cs.Update(x, v)
		lv.heap.Offer(x, lv.cs.Query(x))
	}
}

// Volume returns the number of processed updates N.
func (s *Sketch) Volume() uint64 { return s.volume }

// GSum estimates Σ_x G(f_x) using the recursive estimator: the deepest
// level is summed directly over its heavy hitters, and each level j adds
// its own heavy hitters with sampling-correction coefficients 1−2·h_{j+1}.
func (s *Sketch) GSum(g func(float64) float64) float64 {
	last := len(s.levels) - 1
	y := 0.0
	for _, e := range s.levels[last].heap.Items() {
		y += g(clampPos(e.Count))
	}
	for j := last - 1; j >= 0; j-- {
		sum := 0.0
		for _, e := range s.levels[j].heap.Items() {
			coeff := 1.0
			if s.sampled(e.Item, j+1) {
				coeff = -1.0
			}
			sum += coeff * g(clampPos(e.Count))
		}
		y = 2*y + sum
	}
	return y
}

func clampPos(v int64) float64 {
	if v < 0 {
		return 0
	}
	return float64(v)
}

// Entropy estimates the empirical entropy H = log2(N) − (Σ f·log2 f)/N.
func (s *Sketch) Entropy() float64 {
	if s.volume == 0 {
		return 0
	}
	y := s.GSum(func(f float64) float64 {
		if f <= 0 {
			return 0
		}
		return f * math.Log2(f)
	})
	return math.Log2(float64(s.volume)) - y/float64(s.volume)
}

// Moment estimates the frequency moment Fp = Σ f^p for p ≥ 0.
func (s *Sketch) Moment(p float64) float64 {
	if p == 1 {
		// F1 is the volume, known exactly.
		return float64(s.volume)
	}
	return s.GSum(func(f float64) float64 {
		if f <= 0 {
			return 0
		}
		return math.Pow(f, p)
	})
}

// Distinct estimates the number of distinct items F0.
func (s *Sketch) Distinct() float64 {
	return s.GSum(func(f float64) float64 {
		if f <= 0 {
			return 0
		}
		return 1
	})
}

// HeavyHitters returns the level-0 heap contents: the tracked items with
// the largest estimates.
func (s *Sketch) HeavyHitters() []topk.Entry {
	return s.levels[0].heap.Items()
}
