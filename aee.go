package salsa

import (
	"salsa/internal/aee"
)

// aeeDelta is the failure-probability budget of the SALSA AEE overflow
// comparison, the paper's δ = 4·δest = 0.001 setting (§V).
const aeeDelta = 0.001

// AEE is an Additive Error Estimator sketch (§V): instead of growing
// counters, updates are sampled with probability p = 2^−k and every
// overflow halves p and downsamples the counters, trading a bounded
// additive error for counting range and speed. The backend follows
// Options.Mode:
//
//   - ModeSALSA (default): the paper's estimator-integrated SALSA CMS,
//     which resolves each largest-counter overflow by whichever of merging
//     and downsampling raises the theoretical error bound less.
//   - ModeBaseline: the plain AEE MaxAccuracy estimator over short fixed
//     counters (CounterBits wide, default 16), with Binomial downsampling.
//
// AEE is a Cash Register sketch: Update panics on negative counts. Weights
// are admitted whole on the baseline backend and as unit arrivals on the
// SALSA backend, whose overflow arbitration is defined per arrival.
type AEE struct {
	opt Options
	est *aee.Estimator // ModeBaseline
	sal *aee.SalsaAEE  // ModeSALSA
}

// aeeDefaults resolves the AEE-specific defaults: 4 rows and a 16-bit
// (not 32-bit) baseline counter, the estimators paper's configuration.
func aeeDefaults(opt Options) Options {
	if opt.CounterBits == 0 && opt.Mode == ModeBaseline {
		opt.CounterBits = 16
	}
	return opt.withDefaults(4, MergeSum)
}

// buildAEE realizes an AEEOf spec.
func buildAEE(opt Options) *AEE {
	opt = aeeDefaults(opt)
	a := &AEE{opt: opt}
	if opt.Mode == ModeBaseline {
		a.est = aee.NewMaxAccuracy(aee.Config{
			Rows:          opt.Depth,
			Width:         opt.Width,
			CounterBits:   opt.CounterBits,
			Probabilistic: true,
			Seed:          opt.Seed,
		})
	} else {
		a.sal = aee.NewSalsa(aee.SalsaConfig{
			Rows:  opt.Depth,
			Width: opt.Width,
			S:     opt.CounterBits,
			Delta: aeeDelta,
			Seed:  opt.Seed,
		})
	}
	return a
}

// Update adds count occurrences of item; count must be non-negative.
func (a *AEE) Update(item uint64, count int64) {
	if count < 0 {
		panic("salsa: AEE supports Cash Register streams only (count must be non-negative)")
	}
	if count == 0 {
		return
	}
	if a.est != nil {
		a.est.UpdateWeighted(item, uint64(count))
		return
	}
	for ; count > 0; count-- {
		a.sal.Update(item)
	}
}

// UpdateBatch adds count occurrences of every item, in order.
func (a *AEE) UpdateBatch(items []uint64, count int64) {
	for _, x := range items {
		a.Update(x, count)
	}
}

// Process records one occurrence of item.
func (a *AEE) Process(item uint64) { a.Update(item, 1) }

// Query returns the frequency estimate: the min-over-rows counter scaled
// by the inverse sampling probability 1/p.
func (a *AEE) Query(item uint64) float64 {
	if a.est != nil {
		return a.est.Query(item)
	}
	return a.sal.Query(item)
}

// SampleProb returns the current sampling probability p.
func (a *AEE) SampleProb() float64 {
	if a.est != nil {
		return a.est.SampleProb()
	}
	return a.sal.SampleProb()
}

// Downsamples returns how many downsampling events have occurred.
func (a *AEE) Downsamples() uint {
	if a.est != nil {
		return a.est.Downsamples()
	}
	return a.sal.Downsamples()
}

// Options returns the sketch Options with defaults applied.
func (a *AEE) Options() Options { return a.opt }

// MemoryBits returns the counter footprint in bits.
func (a *AEE) MemoryBits() int {
	if a.est != nil {
		return a.est.SizeBits()
	}
	return a.sal.SizeBits()
}
