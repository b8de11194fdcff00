package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"admission/internal/server"
	"admission/internal/wal"
)

// ChildEnv marks the process as a durable-server child of a crash
// experiment (E17, E19): the experiment re-executes its own binary with
// ChildEnv holding the child's JSON-encoded spec, and SIGKILLs it. Main
// functions that may host the experiments check it and call RunChild.
const ChildEnv = "ACBENCH_CHILD"

// childSpec is the whole parent→child contract. Each experiment derives
// its workload and engine from the seed, so no requests are shipped.
type childSpec struct {
	Exp       string `json:"exp"`            // "E17" or "E19"
	Dir       string `json:"dir"`            // WAL directory
	Addr      string `json:"addr,omitempty"` // fixed listen address ("" = any loopback port)
	Seed      uint64 `json:"seed"`
	Edges     int    `json:"edges"`
	Index     int    `json:"index,omitempty"` // E19: ring partition served
	SnapEvery int64  `json:"snap_every"`
}

// durable is what a child serves: a registration over a recovered WAL,
// the server config to mount it with, the service's state digest (for the
// shutdown snapshot) and its close.
type durable struct {
	cfg    server.Config
	reg    server.Registration
	log    *wal.Log
	digest func() uint64
	close  func()
}

// readyFormat is the one line a child prints once it serves.
const readyFormat = "CHILD READY base=%s recovered=%d"

// RunChild is the body of a re-executed experiment child: a durable
// loopback server built by the experiment named in the ChildEnv spec. It
// recovers whatever the WAL directory holds, prints one READY line with
// its base URL and recovered record count, and serves until SIGTERM; then
// it drains, snapshots any unsnapshotted tail, closes the log and the
// service, and exits. It never returns — SIGKILL is part of its job
// description.
func RunChild() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "acbench child:", err)
		os.Exit(1)
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(os.Getenv(ChildEnv)), &spec); err != nil {
		die(fmt.Errorf("bad %s: %w", ChildEnv, err))
	}
	var d durable
	var err error
	switch spec.Exp {
	case "E17":
		d, err = e17Durable(spec)
	case "E19":
		d, err = e19Durable(spec)
	default:
		err = fmt.Errorf("no child body for experiment %q", spec.Exp)
	}
	if err != nil {
		die(err)
	}
	base, stop, err := serveLoopback(d.cfg, d.reg, spec.Addr)
	if err != nil {
		die(err)
	}
	fmt.Printf(readyFormat+"\n", base, d.log.NextSeq())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	if err := stop(); err != nil {
		die(err)
	}
	if d.log.RecordsSinceSnapshot() > 0 {
		if err := d.log.WriteSnapshot(d.digest()); err != nil {
			die(err)
		}
	}
	if err := d.log.Close(); err != nil {
		die(err)
	}
	d.close()
	os.Exit(0)
}

// child is the parent's handle on one child incarnation.
type child struct {
	cmd       *exec.Cmd
	base      string
	recovered int64
}

// spawnChild re-executes the current binary as a durable server child and
// waits for its READY line.
func spawnChild(spec childSpec) (*child, error) {
	env, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), ChildEnv+"="+string(env))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "CHILD READY ") {
				if _, err := fmt.Sscanf(line, readyFormat, &c.base, &c.recovered); err != nil {
					ready <- fmt.Errorf("%s: unparsable READY line %q: %w", spec.Exp, line, err)
					return
				}
				ready <- nil
				return
			}
		}
		ready <- fmt.Errorf("%s: child exited without a READY line (is the RunChild hook installed in this binary's main?): %v", spec.Exp, sc.Err())
	}()
	select {
	case err = <-ready:
	case <-time.After(60 * time.Second):
		err = fmt.Errorf("%s: child did not become ready within 60s", spec.Exp)
	}
	if err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// term SIGTERMs the child — it drains and snapshots on the way out — and
// waits for a clean exit.
func (c *child) term() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child shutdown after SIGTERM: %w", err)
	}
	return nil
}
