package harness

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/server"
)

// The serving experiments (E14–E20) share this plumbing: one loopback
// server, one load run against it, one conns=1 submit loop, one direct
// sequential reference run, and one line-identity check. The conns=1
// identity gates all ride the same path: a FIFO one-connection stream
// compared line by line with a direct run of an identically seeded engine.

// drainTimeout bounds every server drain.
const drainTimeout = 30 * time.Second

// serveLoopback builds a server from cfg and reg and serves it over HTTP on
// addr, or on a kernel-chosen 127.0.0.1 port when addr is empty. It returns
// the base URL and stop, which drains the server (every queued submission
// decided and answered), only then closes the listener and its
// connections, and returns the drain error. The services behind reg stay
// open: close them after stop.
func serveLoopback(cfg server.Config, reg server.Registration, addr string) (string, func() error, error) {
	srv, err := server.New(cfg, reg)
	if err != nil {
		return "", nil, err
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Drain(ctx)
		_ = httpSrv.Close()
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// serveLoad serves reg on a loopback server, drives it with one load
// generator run (run is server.RunAdmissionLoad or server.RunCoverLoad;
// lc.BaseURL is filled in) and stops the server.
func serveLoad[Req any](reg server.Registration, lc server.LoadConfig[Req],
	run func(context.Context, server.LoadConfig[Req]) (*server.LoadReport, error)) (*server.LoadReport, error) {
	base, stop, err := serveLoopback(server.Config{}, reg, "")
	if err != nil {
		return nil, err
	}
	lc.BaseURL = base
	report, err := run(context.Background(), lc)
	if serr := stop(); err == nil {
		err = serr
	}
	return report, err
}

// conns1Batch is the batch size of every one-connection stream.
const conns1Batch = 64

// submitConns1 sends items over client in order, one conns1Batch-item
// batch in flight at a time — the FIFO path every identity gate rides —
// and returns every decision line and the loop's wall time.
func submitConns1[Req any, Dec any](client *server.Client[Req, Dec], items []Req) ([]Dec, time.Duration, error) {
	got := make([]Dec, 0, len(items))
	start := time.Now()
	for lo := 0; lo < len(items); lo += conns1Batch {
		ds, err := client.Submit(context.Background(), items[lo:min(lo+conns1Batch, len(items))])
		if err != nil {
			return nil, 0, fmt.Errorf("submit at %d: %w", lo, err)
		}
		got = append(got, ds...)
	}
	return got, time.Since(start), nil
}

// servedConns1 serves reg on a loopback server, streams items through a
// one-connection client made by newClient (the workload's JSON or binary
// constructor), and stops the server. It returns the decision lines and
// the submit loop's wall time.
func servedConns1[Req any, Dec any](reg server.Registration,
	newClient func(base string, conns int) *server.Client[Req, Dec], items []Req) ([]Dec, time.Duration, error) {
	base, stop, err := serveLoopback(server.Config{}, reg, "")
	if err != nil {
		return nil, 0, err
	}
	client := newClient(base, 1)
	got, elapsed, err := submitConns1(client, items)
	client.CloseIdle()
	if serr := stop(); err == nil {
		err = serr
	}
	return got, elapsed, err
}

// runDirect decides reqs one at a time, in order, on eng — the direct
// sequential run served streams are held to — and returns its decision
// lines and final state digest. It closes eng; Snapshot stays readable.
func runDirect(eng *engine.Engine, reqs []problem.Request) ([]server.DecisionJSON, uint64, error) {
	defer eng.Close()
	lines := make([]server.DecisionJSON, 0, len(reqs))
	for i, req := range reqs {
		d, err := eng.Submit(context.Background(), req)
		if err != nil {
			return nil, 0, fmt.Errorf("direct request %d: %w", i, err)
		}
		lines = append(lines, server.DecisionJSON{
			ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted,
		})
	}
	return lines, eng.StateDigest(), nil
}

// sameStream holds a served decision stream to its reference line by
// line: equal length, no refused line, and eq on every pair.
func sameStream[D server.WireDecision](got, want []D, eq func(a, b D) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d decisions for %d items", len(got), len(want))
	}
	for i := range got {
		if msg := got[i].ErrorText(); msg != "" {
			return fmt.Errorf("decision %d refused: %s", i, msg)
		}
		if !eq(got[i], want[i]) {
			return fmt.Errorf("decision %d diverges: served %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// sameAdmission compares admission lines on id, accepted, cross-shard and
// preempted.
func sameAdmission(a, b server.DecisionJSON) bool {
	return a.ID == b.ID && a.Accepted == b.Accepted && a.CrossShard == b.CrossShard &&
		slices.Equal(a.Preempted, b.Preempted)
}

// sameCover compares cover lines on the newly bought sets.
func sameCover(a, b server.CoverDecisionJSON) bool { return slices.Equal(a.NewSets, b.NewSets) }

// sameQuery compares query lines on position, accepted and preempted.
func sameQuery(a, b server.QueryDecisionJSON) bool {
	return a.Pos == b.Pos && a.Accepted == b.Accepted && slices.Equal(a.Preempted, b.Preempted)
}

// admissionIdentical streams reqs at conns=1 over JSON to the admission
// route at base and holds the decisions to want.
func admissionIdentical(base string, reqs []problem.Request, want []server.DecisionJSON) error {
	client := server.NewAdmissionClient(base, 1)
	defer client.CloseIdle()
	got, _, err := submitConns1(client, reqs)
	if err != nil {
		return err
	}
	return sameStream(got, want, sameAdmission)
}
