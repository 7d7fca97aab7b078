package salsad

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// HTTP surface of the aggregation tier:
//
//	POST /v1/push      binary push frame  → JSON Ack (200 applied/duplicate, 409 resync)
//	GET  /v1/snapshot  → universal envelope of the cluster-wide merged sketch
//	GET  /v1/query?item=N&item=M…  → JSON {"estimates": {...}}
//	GET  /v1/top?k=K   → JSON heavy-hitter candidates vs the merged sketch
//	GET  /v1/agents    → JSON membership/lease table
//	GET  /v1/resume?agent=ID  → JSON ResumeInfo
//	GET  /v1/stats     → JSON protocol counters + durability/topology gauges
//
// The push decode path is bounded end to end before salsa.Unmarshal ever
// sees a byte: http.MaxBytesReader caps the request body at the frame
// bound, and DecodePush checks the declared envelope size against the
// configured cap (typed *TooLargeError → 413) before decoding.

// Handler returns the aggregator's HTTP surface.
func Handler(a *Aggregator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/push", func(w http.ResponseWriter, r *http.Request) {
		handlePush(a, w, r)
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		blob, err := a.SnapshotBytes()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(blob)
	})
	mux.HandleFunc("GET /v1/query", func(w http.ResponseWriter, r *http.Request) {
		raw := r.URL.Query()["item"]
		items := make([]uint64, 0, len(raw))
		for _, s := range raw {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad item %q", s))
				return
			}
			items = append(items, v)
		}
		ests, err := a.Query(items)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		out := make(map[string]int64, len(items))
		for i, it := range items {
			out[strconv.FormatUint(it, 10)] = ests[i]
		}
		writeJSON(w, http.StatusOK, map[string]any{"estimates": out})
	})
	mux.HandleFunc("GET /v1/top", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if s := r.URL.Query().Get("k"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", s))
				return
			}
			k = v
		}
		top, err := a.Top(k)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		type entry struct {
			Item  uint64 `json:"item"`
			Count int64  `json:"count"`
		}
		out := make([]entry, len(top))
		for i, t := range top {
			out[i] = entry{Item: t.Item, Count: t.Count}
		}
		writeJSON(w, http.StatusOK, map[string]any{"top": out})
	})
	mux.HandleFunc("GET /v1/agents", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"agents": a.Agents()})
	})
	mux.HandleFunc("GET /v1/resume", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("agent")
		if id == "" || len(id) > MaxAgentIDLen {
			httpError(w, http.StatusBadRequest, errors.New("missing or oversized agent id"))
			return
		}
		writeJSON(w, http.StatusOK, a.Resume(id))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.StatsView())
	})
	return mux
}

func handlePush(a *Aggregator, w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, a.MaxFrameBytes())
	data, err := io.ReadAll(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				&TooLargeError{Size: int(mbe.Limit) + 1, Limit: int(mbe.Limit)})
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The envelope is decoded into a pooled buffer: ApplyPush copies what
	// it keeps, so the buffer goes back, cleared, once it returns.
	buf := envelopes.Get().(*[]byte)
	p, err := decodePush(data, a.MaxEnvelopeBytes(), buf)
	var ack *Ack
	if err == nil {
		ack, err = a.ApplyPush(p)
	}
	clear(*buf)
	envelopes.Put(buf)
	if err != nil {
		var tle *TooLargeError
		if errors.As(err, &tle) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if ack.Status == StatusResync {
		status = http.StatusConflict
	}
	if ack.Status == StatusApplied {
		// Durability rides the apply path: every SnapshotEvery applied
		// frames the table is snapshotted. Failures are counted in the
		// aggregator's PersistErrors gauge; the ack is not affected.
		a.MaybePersist() //nolint:errcheck // recorded in stats
	}
	writeJSON(w, status, ack)
}

// envelopes holds the push handler's envelope buffers, each zero up to its
// capacity between pushes, as decodePush needs.
var envelopes = sync.Pool{New: func() any { return new([]byte) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// HTTPTransport delivers frames to an aggregator over HTTP.
type HTTPTransport struct {
	// Base is the aggregator's base URL, e.g. "http://10.0.0.5:7777".
	Base string
	// Client is the HTTP client; nil means a client with a 10s timeout.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// A StatusError reports an aggregator response with a non-success HTTP
// status, preserving the status line and trimmed body for inspection.
type StatusError struct {
	// Op is the rejected operation: "push" or "resume".
	Op string
	// Status is the HTTP status line (e.g. "503 Service Unavailable").
	Status string
	// Body is the trimmed response body.
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("salsad: %s rejected: %s: %s", e.Op, e.Status, e.Body)
}

// Push implements Transport.
func (t *HTTPTransport) Push(ctx context.Context, p *Push) (*Ack, error) {
	enc, err := p.Encode()
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+"/v1/push", bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusConflict:
		var ack Ack
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack); err != nil {
			return nil, fmt.Errorf("salsad: bad ack: %w", err)
		}
		return &ack, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, &StatusError{Op: "push", Status: resp.Status, Body: string(bytes.TrimSpace(msg))}
	}
}

// Resume implements Transport.
func (t *HTTPTransport) Resume(ctx context.Context, agent string) (*ResumeInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		t.Base+"/v1/resume?agent="+url.QueryEscape(agent), nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, &StatusError{Op: "resume", Status: resp.Status, Body: string(bytes.TrimSpace(msg))}
	}
	var info ResumeInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		return nil, fmt.Errorf("salsad: bad resume info: %w", err)
	}
	return &info, nil
}
