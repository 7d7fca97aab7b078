package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBench(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readReports reads a JSON-lines file of salsabench-perf/v2 reports.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != "salsabench-perf/v2" {
			return nil, fmt.Errorf("%s: schema %q, want salsabench-perf/v2", path, r.Schema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects, per workload and metric, the values of correct runs in
// file order.
func series(reports []report) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, r := range reports {
		if !r.Correct {
			continue
		}
		for _, m := range r.Metrics {
			k := [2]string{r.Workload, m.Name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// Verdicts of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs and winShare are the gain rule: at least ten interleaved pairs,
// and the new side wins nine tenths of them.
const (
	minPairs = 10
	winShare = 0.9
)

// verdict compares the runs of one metric on one workload. Run i of old
// pairs with run i of new, so runs must have been made alternately. bound
// is the share of old's median by which the metric may worsen; NaN for a
// per-layer metric, which has none.
//
//   - improved: ≥ 10 pairs, new wins ≥ 9/10 of them (ties count for
//     neither side), and the medians differ by more than old's quartile
//     distance;
//   - worse: new's median is worse than old's by more than the bound (for a
//     metric without bound: the mirror image of improved);
//   - unresolved: old's quartile distance exceeds the bound and new does
//     not beat every old run, or a gain that lacks the pairs to be claimed;
//   - unchanged: everything else.
func verdict(old, cur []float64, higherBetter bool, bound float64) (v string, wins, pairs int) {
	pairs = min(len(old), len(cur))
	losses := 0
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < pairs; i++ {
		switch {
		case better(cur[i], old[i]):
			wins++
		case better(old[i], cur[i]):
			losses++
		}
	}
	mo, mn := median(append([]float64(nil), old...)), median(append([]float64(nil), cur...))
	spread := iqr(old)
	gain := mo - mn // positive when new is better
	if higherBetter {
		gain = -gain
	}
	clearWin := float64(wins) >= winShare*float64(pairs) && gain > spread
	clearLoss := float64(losses) >= winShare*float64(pairs) && -gain > spread
	switch {
	case clearWin && pairs >= minPairs:
		return improved, wins, pairs
	case math.IsNaN(bound) && clearLoss && pairs >= minPairs:
		return worse, wins, pairs
	case !math.IsNaN(bound) && -gain > bound*math.Abs(mo):
		return worse, wins, pairs
	case clearWin:
		return unresolved, wins, pairs
	case !math.IsNaN(bound) && spread > bound*math.Abs(mo) && !allBetter(cur, old, better):
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

func allBetter(cur, old []float64, better func(a, b float64) bool) bool {
	for _, c := range cur {
		for _, o := range old {
			if !better(c, o) {
				return false
			}
		}
	}
	return true
}

// runCompare prints, for every workload and metric in both files, the
// medians, quartiles, wins and verdict, and reports whether any
// end-to-end metric got worse.
func runCompare(oldPath, newPath, benchPath string, out io.Writer) (anyWorse bool, err error) {
	bench, err := loadBench(benchPath)
	if err != nil {
		return false, err
	}
	oldR, err := readReports(oldPath)
	if err != nil {
		return false, err
	}
	newR, err := readReports(newPath)
	if err != nil {
		return false, err
	}
	oldS, newS := series(oldR), series(newR)
	specs := make(map[string]metricSpec)
	order := make(map[string]int)
	for i, m := range append(bench.EndToEnd, bench.PerLayer...) {
		specs[m.Name] = m
		order[m.Name] = i
	}
	keys := make([][2]string, 0, len(oldS))
	for k := range oldS {
		if _, ok := newS[k]; ok {
			if _, known := specs[k[1]]; known {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return order[keys[i][1]] < order[keys[j][1]]
	})
	fmt.Fprintf(out, "%-12s %-34s %-8s %28s %28s %7s  %s\n", "workload", "metric", "unit",
		"old median [q1, q3]", "new median [q1, q3]", "wins", "verdict")
	for _, k := range keys {
		spec := specs[k[1]]
		bound := math.NaN()
		if spec.Bound != nil {
			bound = *spec.Bound
		}
		o, n := oldS[k], newS[k]
		v, wins, pairs := verdict(o, n, spec.Better == "higher", bound)
		if v == worse && spec.Bound != nil {
			anyWorse = true
		}
		fmt.Fprintf(out, "%-12s %-34s %-8s %28s %28s %3d/%-3d  %s\n", k[0], k[1], spec.Unit,
			quartiles(o), quartiles(n), wins, pairs, v)
	}
	return anyWorse, nil
}

func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
}
