// Distributed aggregation: the paper's sketch-merging use case (§V) run
// through the salsad delta protocol over real HTTP. Three edge agents
// sketch disjoint partitions of a stream with shared hash seeds and
// periodically push delta envelopes (current − shadow) to an aggregator
// behind an httptest server. The network is deliberately unreliable — a
// wrapped RoundTripper kills the first delivery of every frame — so every
// push exercises the retry path: the agent freezes the frame, retries it
// byte-identically with backoff, and the aggregator's sequence numbers
// make the redelivery idempotent. The coordinator then answers global
// frequency and heavy-hitter queries from the merged contributions, and
// the /v1/snapshot envelope equals what a single sequential sketch of the
// whole stream would hold — exactly, counter for counter. The program
// exits non-zero when it does not.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"salsa"
	"salsa/internal/salsad"
	"salsa/internal/stream"
)

// flakyTransport fails the first attempt of every distinct POST body:
// each pushed frame needs exactly one retry to get through.
type flakyTransport struct {
	next http.RoundTripper
	seen map[string]bool
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.Body != nil {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		if !f.seen[string(body)] {
			f.seen[string(body)] = true
			return nil, errors.New("connection reset (injected)")
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return f.next.RoundTrip(r)
}

func main() {
	const agents = 3
	const packets = 600_000
	opt := salsa.Options{Width: 1 << 14, Merge: salsa.MergeSum, Seed: 99}
	spec := salsa.CountMinOf(opt)

	trace := stream.NY18.Generate(packets, 17)
	exact := stream.NewExact()
	for _, x := range trace {
		exact.Observe(x)
	}

	// The aggregator end: cluster state plus its HTTP query surface.
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec})
	if err != nil {
		panic(err)
	}
	srv := httptest.NewServer(salsad.Handler(agg))
	defer srv.Close()

	// The edge: each agent sketches its partition and pushes a delta
	// every ~50k items through the lossy client.
	ctx := context.Background()
	var totalRetries, totalWire uint64
	for w := 0; w < agents; w++ {
		transport := &salsad.HTTPTransport{
			Base: srv.URL,
			Client: &http.Client{
				Transport: &flakyTransport{next: http.DefaultTransport, seen: map[string]bool{}},
			},
		}
		ag, err := salsad.NewAgent(salsad.AgentConfig{
			ID:          fmt.Sprintf("edge-%d", w),
			Spec:        spec,
			Transport:   transport,
			BackoffBase: time.Millisecond, // keep the demo snappy
			Candidates: func() []uint64 {
				top := make([]uint64, 0, 8)
				for _, x := range exact.TopK(8) {
					top = append(top, x)
				}
				return top
			},
		})
		if err != nil {
			panic(err)
		}
		for i := w; i < len(trace); i += agents {
			ag.Ingest(trace[i])
			if ag.Frontier()%50_000 == 0 {
				if err := ag.PushOnce(ctx); err != nil {
					panic(err)
				}
			}
		}
		if err := ag.PushOnce(ctx); err != nil { // final flush
			panic(err)
		}
		if !ag.Synced() {
			panic("agent finished unsynced")
		}
		st := ag.Stats()
		totalRetries += st.Retries
		totalWire += st.WireBytes
		fmt.Printf("edge-%d: %d frames acked, %d retries forced by the flaky network\n",
			w, st.FramesAcked, st.Retries)
	}

	// Idempotency check: every frame needed a retry, yet nothing double
	// counted — the cluster snapshot equals one sequential sketch of the
	// whole stream, byte for byte.
	resp, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		panic(err)
	}
	snapshot, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	sequential := salsa.MustBuild(spec).(*salsa.CountMin)
	for _, x := range trace {
		sequential.Increment(x)
	}
	want, err := salsa.Marshal(sequential)
	if err != nil {
		panic(err)
	}
	same := bytes.Equal(snapshot, want)
	fmt.Printf("\n%d agents, %d packets, %d retries, %d wire bytes\n",
		agents, packets, totalRetries, totalWire)
	fmt.Printf("cluster snapshot == sequential reference: %v (%d bytes)\n\n",
		same, len(snapshot))
	if !same {
		panic("the cluster snapshot differs from the sequential reference")
	}

	// Global heavy hitters from the aggregator's candidate pool.
	top, err := agg.Top(8)
	if err != nil {
		panic(err)
	}
	fmt.Println("item                     truth   cluster")
	for _, e := range top {
		fmt.Printf("%-20d %9d %9d\n", e.Item, exact.Count(e.Item), e.Count)
	}
}
