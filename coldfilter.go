package salsa

import (
	"fmt"

	"salsa/internal/coldfilter"
)

// maxFilterWidth bounds the second-stage Width a Filtered spec accepts:
// the layer-1 filter is 4× wider, and the bound keeps its counter count
// well inside int range on 32-bit platforms.
const maxFilterWidth = 1 << 28

// validateFilterWidth checks the Filtered width bound (Width itself is
// validated by Options.Validate).
func validateFilterWidth(width int) error {
	if width > maxFilterWidth {
		return fmt.Errorf("salsa: Filtered Width %d exceeds the maximum %d", width, maxFilterWidth)
	}
	return nil
}

// filterSeed derives the filter layers' hash seed family from the stage-2
// seed; it differs from every stage-2 row seed so the layers' collisions
// stay independent of the sketch's.
func filterSeed(seed uint64) uint64 { return seed ^ 0xc01df117 }

// ColdFilter separates the cold items from the heavy hitters (§III): two
// conservative filter layers — 4·w 4-bit counters, then w 8-bit counters,
// three probes each — absorb cold volume, and only the hot residual
// reaches the second-stage sketch (the paper's Fig. 13 uses a SALSA CUS
// stage). Estimates are conservative overestimates.
//
// ColdFilter is a Cash Register sketch: Update panics on negative counts.
type ColdFilter struct {
	cf           *coldfilter.Filter
	stage2       *CountMin
	opt          Options
	conservative bool
}

// buildColdFilter realizes a Filtered(CountMinOf/ConservativeOf) spec.
func buildColdFilter(opt Options, conservative bool) *ColdFilter {
	stage2 := buildCountMin(opt, conservative)
	o := stage2.Options()
	cf := coldfilter.New(coldfilter.Config{
		W1:   4 * o.Width,
		W2:   o.Width,
		D1:   3,
		D2:   3,
		Seed: filterSeed(o.Seed),
	}, stage2.sk)
	return &ColdFilter{cf: cf, stage2: stage2, opt: o, conservative: conservative}
}

// Update adds count occurrences of item; count must be non-negative.
func (c *ColdFilter) Update(item uint64, count int64) { c.cf.Update(item, count) }

// UpdateBatch adds count occurrences of every item, in order.
func (c *ColdFilter) UpdateBatch(items []uint64, count int64) { c.cf.UpdateBatch(items, count) }

// Process records one occurrence of item.
func (c *ColdFilter) Process(item uint64) { c.cf.Update(item, 1) }

// Query returns the frequency estimate: the filter layers' conservative
// counts, plus the second stage once both layers saturate for item.
func (c *ColdFilter) Query(item uint64) uint64 { return c.cf.Query(item) }

// Stage2Volume returns how much update volume reached the second stage —
// the quantity the filter exists to minimize.
func (c *ColdFilter) Stage2Volume() uint64 { return c.cf.Stage2Volume() }

// Options returns the second-stage sketch Options with defaults applied.
func (c *ColdFilter) Options() Options { return c.opt }

// MemoryBits returns the footprint of both layers and the second stage.
func (c *ColdFilter) MemoryBits() int { return c.cf.SizeBits() }
