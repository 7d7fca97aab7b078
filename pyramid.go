package salsa

import (
	"fmt"

	"salsa/internal/pyramid"
)

// pyramidLayers is the pyramid depth a Tiered spec builds: a layer-1 byte
// plus five 6-bit hybrid tranches count to 2^38 per cell before the top
// layer saturates, while halving widths keep the footprint under 2·Width
// bytes per row.
const pyramidLayers = 6

// maxPyramidWidth bounds the layer-1 width of a Tiered spec so the byte
// arena stays well inside int range on 32-bit platforms.
const maxPyramidWidth = 1 << 30

// validatePyramidWidth checks the Tiered width bound (Width itself is
// validated by Options.Validate).
func validatePyramidWidth(width int) error {
	if width > maxPyramidWidth {
		return fmt.Errorf("salsa: Tiered Width %d exceeds the maximum %d", width, maxPyramidWidth)
	}
	return nil
}

// Pyramid is the Pyramid Sketch (the paper's variable-counter-size
// competitor, Fig. 9): a Count-Min layout whose counters overflow into
// halving-width parent layers of shared hybrid counters — two flag bits
// plus six count bits per parent byte, shared between two children, which
// is the error source the paper highlights. Estimates are min-over-rows
// overestimates.
//
// Pyramid is a Cash Register sketch: Update panics on negative counts.
type Pyramid struct {
	py  *pyramid.Sketch
	opt Options
}

// buildPyramid realizes a Tiered(CountMinOf) spec.
func buildPyramid(opt Options) *Pyramid {
	opt = opt.withDefaults(4, MergeSum)
	return &Pyramid{py: pyramid.New(opt.Depth, opt.Width, pyramidLayers, opt.Seed), opt: opt}
}

// Update adds count occurrences of item; count must be non-negative.
func (p *Pyramid) Update(item uint64, count int64) { p.py.Update(item, count) }

// UpdateBatch adds count occurrences of every item, in order.
func (p *Pyramid) UpdateBatch(items []uint64, count int64) { p.py.UpdateBatch(items, count) }

// Increment adds one occurrence of item.
func (p *Pyramid) Increment(item uint64) { p.py.Update(item, 1) }

// Query returns the min-over-rows frequency estimate, reconstructed by
// walking each row's flag chain.
func (p *Pyramid) Query(item uint64) uint64 { return p.py.Query(item) }

// Layers returns the effective layer count (halving widths stop at one
// byte).
func (p *Pyramid) Layers() int { return p.py.Layers() }

// Reset zeroes every counter, reusing the arena.
func (p *Pyramid) Reset() { p.py.Reset() }

// Options returns the row Options with defaults applied; Mode,
// CounterBits, Merge and CompactEncoding are carried but unused — the
// pyramid layers are the counter backend.
func (p *Pyramid) Options() Options { return p.opt }

// MemoryBits returns the pre-allocated footprint in bits; unlike SALSA,
// every layer is allocated up front whether or not it is ever reached.
func (p *Pyramid) MemoryBits() int { return p.py.SizeBits() }
