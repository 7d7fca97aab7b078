package salsad

import (
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"salsa"
)

// rankSpec is a Count Sketch spec, so the candidate pool holds items whose
// merged estimates are negative.
func rankSpec() salsa.Spec {
	return salsa.CountSketchOf(salsa.Options{Width: 1 << 12, Seed: 5})
}

// rankWeight plants weights from −3 to 3 on items, so the pool has many
// equal estimates, estimates exactly at Top's threshold of 1, and negative
// ones.
func rankWeight(item uint64) int64 { return int64(item%7) - 3 }

// rankEnvelope marshals a rankSpec sketch holding rankWeight(x) of each x
// in items.
func rankEnvelope(t *testing.T, items []uint64) []byte {
	t.Helper()
	s := salsa.MustBuild(rankSpec())
	for _, x := range items {
		s.Update(x, rankWeight(x))
	}
	return marshalState(t, s)
}

// rankPool returns the items from lo to hi.
func rankPool(lo, hi uint64) []uint64 {
	var out []uint64
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	return out
}

// rankRef evaluates items on a and ranks them by descending estimate,
// equal estimates by ascending item: a stable sort by item, then a stable
// sort by estimate.
func rankRef(t *testing.T, a *Aggregator, items []uint64) []salsa.ItemCount {
	t.Helper()
	ests, err := a.Query(items)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]salsa.ItemCount, len(items))
	for i, x := range items {
		out[i] = salsa.ItemCount{Item: x, Count: ests[i]}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// captureTransport records the candidates of the last frame it delivers.
type captureTransport struct {
	*directTransport
	cands []uint64
}

func (c *captureTransport) Push(ctx context.Context, p *Push) (*Ack, error) {
	c.cands = slices.Clone(p.Candidates)
	return c.directTransport.Push(ctx, p)
}

// TestTopAndRelayCutRankPoolEstimates holds Aggregator.Top and a relay's
// forwarded candidates to a reference ranking of the pool's merged
// estimates: Top keeps the positive estimates and cuts them at k; the relay
// forwards the same positive estimates (fewer than MaxPushCandidates here,
// so the cap would have let non-positive ones through), and the root pool
// holds exactly those.
func TestTopAndRelayCutRankPoolEstimates(t *testing.T) {
	empty := newTestAggregator(t, AggregatorConfig{Spec: rankSpec()})
	if top, err := empty.Top(10); err != nil || top == nil || len(top) != 0 {
		t.Fatalf("empty Top(10) = %#v, %v; want an empty non-nil slice", top, err)
	}

	root := newTestAggregator(t, AggregatorConfig{Spec: rankSpec()})
	up := &captureTransport{directTransport: &directTransport{agg: root}}
	r, err := NewRelay(RelayConfig{ID: "relay-1", Generation: 1, Spec: rankSpec(), Upstream: up,
		Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	first, second := rankPool(1, 400), rankPool(401, 700)
	push(t, r.Agg(), &Push{Agent: "e1", Gen: 1, Seq: 1, Flags: FlagFull, Candidates: first,
		Envelope: rankEnvelope(t, first)})
	push(t, r.Agg(), &Push{Agent: "e2", Gen: 1, Seq: 1, Flags: FlagFull, Candidates: second,
		Envelope: rankEnvelope(t, second)})

	ranked := rankRef(t, r.Agg(), rankPool(1, 700))
	var positive, ties, atOne, negative int
	for i, e := range ranked {
		switch {
		case e.Count > 0:
			positive++
		case e.Count < 0:
			negative++
		}
		if e.Count == 1 {
			atOne++
		}
		if i > 0 && ranked[i-1].Count == e.Count {
			ties++
		}
	}
	if positive == 0 || ties == 0 || atOne == 0 || negative == 0 || positive+negative >= len(ranked) {
		t.Fatalf("pool lacks a case: %d positive, %d ties, %d at 1, %d negative of %d",
			positive, ties, atOne, negative, len(ranked))
	}
	if MaxPushCandidates <= positive || MaxPushCandidates >= len(ranked) {
		t.Fatalf("the relay cut must fall among the negative estimates")
	}

	for _, k := range []int{0, 1, 5, positive - 1, positive, MaxPushCandidates, 1000} {
		want := ranked[:positive]
		if k > 0 && k < len(want) {
			want = want[:k]
		}
		got, err := r.Agg().Top(k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Top(%d) = %d items %v..., want %d items %v...", k, len(got), got[:min(4, len(got))], len(want), want[:min(4, len(want))])
		}
	}

	if err := r.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, positive)
	for i := range want {
		want[i] = ranked[i].Item
	}
	if !slices.Equal(up.cands, want) {
		t.Fatalf("the relay forwarded %d candidates, not the %d with positive estimates", len(up.cands), len(want))
	}
	pool := make([]uint64, 0, len(root.candidates))
	for x := range root.candidates {
		pool = append(pool, x)
	}
	slices.Sort(pool)
	slices.Sort(want)
	if !slices.Equal(pool, want) {
		t.Fatalf("the root pool holds %d candidates, not the relay's %d", len(pool), len(want))
	}
}
