package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"admission/internal/problem"
	"admission/internal/server"
)

// TestOpenLoopChargesStallFromDueTime stalls a fake admission handler
// once, for every connection at the same time. Submissions that came due
// during the stall must carry it in their latency — timed from when they
// were due, not from when a connection was free to send them — and the
// send lag must report how late the generator ran.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var mu sync.Mutex // held by every handler, so one stall blocks both connections
	calls := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reqs, err := server.DecodeJSONBatch[problem.Request](body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		calls++
		if calls == 5 {
			time.Sleep(stall)
		}
		mu.Unlock()
		enc := json.NewEncoder(w)
		for i := range reqs {
			_ = enc.Encode(server.DecisionJSON{ID: i, Accepted: true})
		}
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := server.NewAdmissionClient(ts.URL, clientConns)
	defer client.CloseIdle()

	items := make([]problem.Request, 40)
	for i := range items {
		items[i] = problem.Request{Edges: []int{0}, Cost: 1}
	}
	out := make([]server.DecisionJSON, len(items))
	// One item per submission, one due every 5ms: the whole schedule
	// spans 200ms, so the stall covers most of it.
	res := openLoop(context.Background(), client.Submit, items, out, 1, clientConns, 200)
	if res.failed != 0 || len(res.latencies) != len(items) {
		t.Fatalf("failed %d, %d latencies", res.failed, len(res.latencies))
	}
	delayed := 0
	for k, lat := range res.latencies {
		if lat < res.lags[k] {
			t.Errorf("submission %d: latency %v shorter than its send lag %v", k, lat, res.lags[k])
		}
		if lat >= 100*time.Millisecond {
			delayed++
		}
	}
	// The stall starts with the 5th submission (due at 20ms) and ends
	// 150ms later, so every submission due before 70ms waits ≥ 100ms.
	if delayed < 8 {
		t.Errorf("%d submissions carry ≥ 100ms, want ≥ 8: %v", delayed, res.latencies)
	}
	if lag := quantile(ms(res.lags), 0.99); lag < 100 {
		t.Errorf("send lag p99 %.1fms, want ≥ 100ms", lag)
	}
}
