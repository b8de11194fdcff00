package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own code. Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is how many operations the span covers (items of a submission, or
	// calls of a batched sub-microsecond layer).
	N int `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced run; they are written out
// when the benchmark ends. A nil *recorder records nothing, which is how
// untraced runs stay free of tracing cost.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// conns maps a client connection's local address to the client span
	// currently using it. server.Client has no hook for request headers,
	// so a handler span finds its client span through the connection the
	// request arrived on: HTTP/1.1 carries one request at a time per
	// connection, which makes the link unique.
	conns map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), conns: map[string]int64{}}
}

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as one span of n operations and returns its duration.
func (r *recorder) timed(name string, n int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	if r != nil {
		r.add(span{ID: r.newID(), Name: name, Start: r.since(start), End: r.since(end), N: n})
	}
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// clientSpan wraps one client submission in a root span and registers
// the connection it goes out on, so the server's handler span can name
// it as parent.
func clientSpan[Req, Dec any](r *recorder, submit submitFn[Req, Dec]) submitFn[Req, Dec] {
	if r == nil {
		return submit
	}
	return func(ctx context.Context, items []Req) ([]Dec, error) {
		id := r.newID()
		var addr string
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				r.mu.Lock()
				addr = info.Conn.LocalAddr().String()
				r.conns[addr] = id
				r.mu.Unlock()
			},
		})
		start := time.Now()
		ds, err := submit(ctx, items)
		end := time.Now()
		r.mu.Lock()
		if r.conns[addr] == id {
			delete(r.conns, addr)
		}
		r.spans = append(r.spans, span{ID: id, Name: spanClient, Start: r.since(start), End: r.since(end), N: len(items)})
		r.mu.Unlock()
		return ds, err
	}
}

// wrap times every submission (POST) the handler serves as a span called name,
// parented to the client span that sent it when there is one.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			h.ServeHTTP(w, req)
			return
		}
		r.mu.Lock()
		parent := r.conns[req.RemoteAddr]
		r.mu.Unlock()
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		r.add(span{ID: r.newID(), Parent: parent, Name: name, Start: r.since(start), End: r.since(end)})
	})
}

// Span names recorded around the served stack.
const (
	spanClient  = "client.submit"
	spanHandler = "server.handler"
	spanBackend = "backend.handler"
)

// selfTime is a span's duration minus the part of its interval that the
// given child spans cover (overlapping children are counted once).
func selfTime(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return p.dur() - time.Duration(covered)
}

// byName returns the spans called name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes computes self time for every span named parentName against
// its children by parent link.
func selfTimes(spans []span, parentName string) []time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == parentName {
			out = append(out, selfTime(s, kids[s.ID]))
		}
	}
	return out
}

// overlapSelfTimes computes self time for every span named parentName
// against the spans named childName that overlap it in time — the link
// for layers the benchmark cannot tag, such as the router's own backend
// calls. Child time is taken out once in total: while k parent spans are
// in flight and some child span runs, each parent is charged 1/k of that
// time, so a backend call is not subtracted from both of two concurrent
// router spans.
func overlapSelfTimes(spans []span, parentName, childName string) []time.Duration {
	type event struct {
		t      int64
		start  bool
		parent int // index into parents, or -1 for a child span
	}
	parents := byName(spans, parentName)
	var evs []event
	for i, p := range parents {
		evs = append(evs, event{p.Start, true, i}, event{p.End, false, i})
	}
	for _, c := range byName(spans, childName) {
		evs = append(evs, event{c.Start, true, -1}, event{c.End, false, -1})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	charged := make([]float64, len(parents))
	active := map[int]bool{}
	children := 0
	for i, e := range evs {
		if i > 0 && children > 0 && len(active) > 0 {
			share := float64(e.t-evs[i-1].t) / float64(len(active))
			for p := range active {
				charged[p] += share
			}
		}
		switch {
		case e.parent < 0 && e.start:
			children++
		case e.parent < 0:
			children--
		case e.start:
			active[e.parent] = true
		default:
			delete(active, e.parent)
		}
	}
	out := make([]time.Duration, len(parents))
	for i, p := range parents {
		out[i] = p.dur() - time.Duration(math.Round(charged[i]))
	}
	return out
}

// layerReport prints each span name's count, operations, total and self
// time (self against parent-linked children), the per-layer view of the
// traced run.
func layerReport(spans []span) {
	type agg struct {
		count, ops  int
		total, self time.Duration
	}
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	aggs := map[string]*agg{}
	for _, s := range spans {
		a := aggs[s.Name]
		if a == nil {
			a = &agg{}
			aggs[s.Name] = a
		}
		a.count++
		a.ops += s.N
		a.total += s.dur()
		a.self += selfTime(s, kids[s.ID])
	}
	names := make([]string, 0, len(aggs))
	for n := range aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-26s %8s %10s %12s %12s\n", "span", "count", "ops", "total_ms", "self_ms")
	for _, n := range names {
		a := aggs[n]
		fmt.Printf("%-26s %8d %10d %12.3f %12.3f\n", n, a.count, a.ops,
			float64(a.total)/float64(time.Millisecond), float64(a.self)/float64(time.Millisecond))
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
