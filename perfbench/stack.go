package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"admission/internal/server"
)

// clientConns is the number of client goroutines and connections every
// loop uses: one per core of the 2-core host the benchmark was defined
// on, so the client never outnumbers the cores it shares with the server.
const clientConns = 2

// system is one served stack under test with its generated inputs, set
// up fresh for every phase so each phase does the same algorithmic work.
type system interface {
	// closed runs the whole sequence as a closed loop, tracing it when
	// rec is not nil.
	closed(ctx context.Context, rec *recorder) loopResult
	// open offers the whole sequence at rate items per second, chunk
	// items per submission.
	open(ctx context.Context, rate float64, chunk int) loopResult
	// scrape reads the front server's /metrics.
	scrape(ctx context.Context) (promText, error)
	// stats decodes the front workload's stats body into out.
	stats(ctx context.Context, out any) error
	// route is the front workload's route name, which prefixes its
	// series on /metrics.
	route() string
	// finish drains and stops the stack, then checks the decisions the
	// client received against the system's own accounting; it returns
	// the objective reconstructed from those decisions.
	finish() (objective float64, err error)
	// scale is what the objective is read against.
	scale() scale
}

// scale is what objective_ratio is read against: the lower bound on the
// optimal objective, and the objective of the trivial engine — one that
// rejects every request, or buys every set — whose ratio to the bound
// shows how far the metric can move on the workload.
type scale struct{ bound, trivial float64 }

// served is a system whose front is one workload of a server.Server.
type served[Req any, Dec server.WireDecision] struct {
	items  []Req
	client *server.Client[Req, Dec]
	decs   []Dec
	sc     scale
	st     *stack
	// check runs after the stack stopped, when the engines' accounting
	// is exact.
	check func(decs []Dec) (float64, error)
}

func (s *served[Req, Dec]) closed(ctx context.Context, rec *recorder) loopResult {
	return closedLoop(ctx, clientSpan(rec, s.client.Submit), s.items, s.decs, batch, clientConns)
}

func (s *served[Req, Dec]) open(ctx context.Context, rate float64, chunk int) loopResult {
	return openLoop(ctx, s.client.Submit, s.items, s.decs, chunk, clientConns, rate)
}

func (s *served[Req, Dec]) scrape(ctx context.Context) (promText, error) {
	text, err := s.client.Metrics(ctx)
	return parseProm(text), err
}

func (s *served[Req, Dec]) stats(ctx context.Context, out any) error {
	return s.client.Stats(ctx, out)
}

func (s *served[Req, Dec]) route() string { return s.client.Workload() }

func (s *served[Req, Dec]) finish() (float64, error) {
	s.client.CloseIdle()
	if err := s.st.close(); err != nil {
		return 0, err
	}
	for i, d := range s.decs {
		if msg := d.ErrorText(); msg != "" {
			return 0, fmt.Errorf("item %d failed: %s", i, msg)
		}
	}
	return s.check(s.decs)
}

func (s *served[Req, Dec]) scale() scale { return s.sc }

// start connects a client to the stack's front server and waits until it
// is healthy.
func start[Req any, Dec server.WireDecision](st *stack, client *server.Client[Req, Dec], items []Req, sc scale, check func([]Dec) (float64, error)) (system, error) {
	if err := client.WaitHealthy(10 * time.Second); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return &served[Req, Dec]{
		items: items, client: client, decs: make([]Dec, len(items)),
		sc: sc, st: st, check: check,
	}, nil
}

// stack owns the pieces of one started system and stops them in reverse
// order of starting.
type stack struct {
	closers []func() error
}

func (s *stack) push(f func() error) { s.closers = append(s.closers, f) }

func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// serve serves h on a fresh loopback listener; stopping drains srv
// (every queued submission is answered) and then shuts the listener.
func (s *stack) serve(srv *server.Server, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	s.push(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Drain(ctx)
		_ = hs.Close() // closing a listener we own; Drain's error is the one that matters
		<-done
		return err
	})
	return "http://" + ln.Addr().String(), nil
}

// near compares two cost sums accumulated in different orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
