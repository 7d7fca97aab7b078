// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI and Appendix B). Each experiment is registered under its
// figure id (fig8ab for Fig. 8a,b; `salsabench -list` prints every id with
// its figure) and produces the same series the paper plots, as
// CSV-friendly rows. cmd/salsabench is the front end.
//
// Streams are scaled from the paper's 98M-update traces to a configurable
// default (Config.N) with sketch widths scaled by the same factor, so the
// operating points — counters per distinct item, load per counter — match
// the paper's. Shapes (who wins, by what factor, where curves cross) are
// the reproduction target; absolute numbers depend on the host.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"salsa/internal/metrics"
	"salsa/internal/stream"
)

// Config scales an experiment run.
type Config struct {
	// N is the stream length (the paper uses 98M; the default CLI uses
	// 1M to stay laptop-scale).
	N int
	// Trials is the number of repetitions per data point (paper: 10).
	Trials int
	// Seed derives all stream and sketch seeds.
	Seed uint64
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.N == 0 {
		c.N = 1_000_000
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Point is one datum of one series: x-coordinate, mean y over trials, and
// the half-width of the 95% Student-t confidence interval.
type Point struct {
	Series string
	X      float64
	Y      float64
	CI     float64
}

// Result is a regenerated figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Points []Point
}

// Func runs one experiment.
type Func func(cfg Config) Result

type entry struct {
	title string
	fn    Func
}

var (
	regMu    sync.Mutex
	registry = map[string]entry{}
)

// register adds an experiment under its figure id.
func register(id, title string, fn Func) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = entry{title, fn}
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	regMu.Lock()
	defer regMu.Unlock()
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered title for an experiment id.
func Title(id string) string {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[id].title
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (Result, error) {
	regMu.Lock()
	e, ok := registry[id]
	regMu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	res := e.fn(cfg.WithDefaults())
	res.ID = id
	res.Title = e.title
	return res, nil
}

// sketchUnderTest is the uniform adapter every experiment drives: unit
// updates, float estimates, bit-accounted memory.
type sketchUnderTest struct {
	name   string
	update func(x uint64)
	query  func(x uint64) float64
	bits   int
}

// maker builds a sketch-under-test for a memory budget (in bits) and seed.
type maker func(memBits int, seed uint64) sketchUnderTest

// widthForBudget returns the largest power-of-two row width such that d
// rows at perSlotBits bits per slot fit in memBits, never below minW.
func widthForBudget(memBits, d int, perSlotBits float64, minW int) int {
	w := minW
	for float64(2*w*d)*perSlotBits <= float64(memBits) {
		w *= 2
	}
	return w
}

// streamCache avoids regenerating identical traces across data points.
var streamCache sync.Map // key string -> []uint64

func cachedStream(d stream.Dataset, n int, seed uint64) []uint64 {
	key := fmt.Sprintf("%s/%d/%d", d.Name, n, seed)
	if v, ok := streamCache.Load(key); ok {
		return v.([]uint64)
	}
	s := d.Generate(n, seed)
	streamCache.Store(key, s)
	return s
}

func cachedZipf(n int, u int, alpha float64, seed uint64) []uint64 {
	key := fmt.Sprintf("zipf/%d/%d/%f/%d", n, u, alpha, seed)
	if v, ok := streamCache.Load(key); ok {
		return v.([]uint64)
	}
	s := stream.Zipf(n, u, alpha, seed)
	streamCache.Store(key, s)
	return s
}

// zipfUniverse is the universe used for the synthetic skew sweeps,
// mirroring the paper's Zipf traces: scale with the stream.
func zipfUniverse(n int) int {
	u := n / 10
	if u < 1024 {
		u = 1024
	}
	return u
}

// onArrivalNRMSE runs the on-arrival evaluation (§VI, "Metrics"): update,
// query, compare with the item's running true count.
func onArrivalNRMSE(s sketchUnderTest, data []uint64) float64 {
	exact := stream.NewExact()
	var acc metrics.OnArrival
	for _, x := range data {
		s.update(x)
		truth := exact.Observe(x)
		acc.Observe(s.query(x), float64(truth))
	}
	return acc.NRMSE()
}

// finalAAEARE runs the stream and computes AAE and ARE over the distinct
// items at the end.
func finalAAEARE(s sketchUnderTest, data []uint64) (aae, are float64) {
	exact := stream.NewExact()
	for _, x := range data {
		s.update(x)
		exact.Observe(x)
	}
	return metrics.AAEARE(exact.Counts(), s.query)
}

// throughput measures update throughput in millions of operations per
// second (no queries), as in the paper's speed plots.
func throughput(s sketchUnderTest, data []uint64) float64 {
	start := time.Now()
	for _, x := range data {
		s.update(x)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed == 0 {
		return math.Inf(1)
	}
	return float64(len(data)) / elapsed / 1e6
}

// trialSeeds derives per-trial seeds.
func trialSeeds(cfg Config, salt uint64) []uint64 {
	out := make([]uint64, cfg.Trials)
	for i := range out {
		out[i] = cfg.Seed + salt*1000 + uint64(i)
	}
	return out
}

// meanPoint aggregates per-trial samples into a Point.
func meanPoint(series string, x float64, samples []float64) Point {
	mean, ci := metrics.MeanCI95(samples)
	return Point{Series: series, X: x, Y: mean, CI: ci}
}

// memorySweepKB returns the nominal memory budgets for the sweep figures,
// scaled from the paper's 10KB–2MB range by the stream-size ratio. The
// returned values are in kilobytes.
func memorySweepKB(n int) []float64 {
	// The paper pairs 98M updates with 8KB–2MB sketches. Scale the top of
	// the range by n/98M, with a floor that keeps at least 5 points.
	top := 2048.0 * float64(n) / 98e6 * 32 // generous: keep loads comparable
	if top < 64 {
		top = 64
	}
	var out []float64
	for kb := top / 64; kb <= top; kb *= 2 {
		out = append(out, kb)
	}
	return out
}

// skewSweep is the paper's Zipf skew range.
func skewSweep() []float64 { return []float64{0.6, 0.8, 1.0, 1.2, 1.4} }

const bitsPerKB = 8 * 1024
