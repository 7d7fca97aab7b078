package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one frame share the id
// "agent/gen/seq"; spans of one read share "q<n>" or "t<n>".
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. It records only while
// on; the run toggles it so traced and untraced slices interleave and the
// tracing overhead can be measured on the same run.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, or -1 while tracing is off.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i, recording how many items it covered.
func (t *tracer) end(i, items int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.spans[i].Items = items
}

// setID names span i and, when they are still unnamed, its ancestors: the
// frame id is known only once the transport sees the frame.
func (t *tracer) setID(i int, id string) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for ; i >= 0 && i < len(t.spans) && t.spans[i].ID == ""; i = t.spans[i].Parent {
		t.spans[i].ID = id
	}
}

// id returns the id of span i.
func (t *tracer) id(i int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.spans) {
		return ""
	}
	return t.spans[i].ID
}

// durations returns the duration of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per closed span with the name, its duration minus the
// part of its interval covered by its children.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered))
	}
	return out
}

// perItem returns total span time over total items for the name, in ns.
func (t *tracer) perItem(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns, items int64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			ns += s.End - s.Start
			items += int64(s.Items)
		}
	}
	if items == 0 {
		return 0
	}
	return float64(ns) / float64(items)
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the caller's span index through a context, so the
// transport, the HTTP client and, through a header, the server name their
// parent.
type spanKey struct{}

const spanHeader = "X-Pipebench-Span"

func withSpan(ctx context.Context, i int) context.Context {
	return context.WithValue(ctx, spanKey{}, i)
}

func spanOf(ctx context.Context) int {
	if i, ok := ctx.Value(spanKey{}).(int); ok {
		return i
	}
	return -1
}

// headerTransport copies the caller's span index into a request header.
type headerTransport struct{ base http.RoundTripper }

func (h headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if i := spanOf(req.Context()); i >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(i))
	}
	return h.base.RoundTrip(req)
}

// serverSpans wraps a node's HTTP surface, recording one span per request
// named after its endpoint and parented to the client span that sent it.
func serverSpans(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := -1
		if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = v
		}
		name := "http.other.server"
		switch r.URL.Path {
		case "/v1/push":
			name = "http.push.server"
		case "/v1/query":
			name = "http.query.server"
		case "/v1/top":
			name = "http.top.server"
		}
		sp := tr.begin(name, tr.id(parent), parent)
		next.ServeHTTP(w, r)
		tr.end(sp, 0)
	})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; it sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timeIt returns the median wall time of n calls to fn, in ns.
func timeIt(n int, fn func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds()))
	}
	return median(ds), nil
}
