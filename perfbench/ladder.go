package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"admission/internal/core"
	"admission/internal/coverengine"
	"admission/internal/engine"
	"admission/internal/problem"
	"admission/internal/server"
	"admission/internal/setcover"
	"admission/internal/wal"
	"admission/internal/wire"
)

// The ladder replays a workload's sequence through each layer's public
// functions directly, one layer at a time, so a layer's cost is measured
// without the layers above it. Layers that decide in well under a
// microsecond are timed per chunk of calls rather than per call, so the
// clock does not dominate what it measures.
const coreChunk = 64

// mallocs reads the process's cumulative heap allocation count. The
// ladder runs alone, so a delta around a stage counts that stage's
// allocations, including those of the goroutines it drives.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladderCore replays the sequence through one §3 instance over the whole
// capacity vector.
func ladderCore(rec *recorder, caps []int, reqs []problem.Request, cfg core.Config, out map[string]float64) error {
	alg, err := core.NewRandomized(caps, cfg)
	if err != nil {
		return err
	}
	m0 := mallocs()
	var total time.Duration
	for lo := 0; lo < len(reqs); lo += coreChunk {
		hi := min(lo+coreChunk, len(reqs))
		total += rec.timed("core.Offer", hi-lo, func() {
			for i := lo; i < hi && err == nil; i++ {
				_, err = alg.Offer(i, reqs[i])
			}
		})
		if err != nil {
			return fmt.Errorf("core: offer: %w", err)
		}
	}
	n := float64(len(reqs))
	out["core.allocs_per_offer"] = float64(mallocs()-m0) / n
	out["core.offer_us"] = total.Seconds() * 1e6 / n
	out["core.aug_steps_per_offer"] = float64(alg.Augmentations()) / n
	out["core.preemptions_per_offer"] = float64(alg.Preemptions()) / n
	return nil
}

// ladderCoreReduction drives the same §3 core through the §4 reduction:
// phase 1 offers one request per set, then every arrival shrinks its
// element's edge by one unit. The core metrics are per core operation.
func ladderCoreReduction(rec *recorder, ins *setcover.Instance, arrivals []int, seed uint64, out map[string]float64) error {
	caps, phase1, err := setcover.BuildAdmissionInstance(ins)
	if err != nil {
		return err
	}
	alg, err := core.NewRandomized(caps, setcover.CoreConfigFor(ins, setcover.ReductionConfig{Seed: seed}))
	if err != nil {
		return err
	}
	m0 := mallocs()
	var total time.Duration
	for lo := 0; lo < len(phase1); lo += coreChunk {
		hi := min(lo+coreChunk, len(phase1))
		total += rec.timed("core.Offer", hi-lo, func() {
			for i := lo; i < hi && err == nil; i++ {
				_, err = alg.Offer(i, phase1[i])
			}
		})
		if err != nil {
			return fmt.Errorf("core: offer: %w", err)
		}
	}
	for lo := 0; lo < len(arrivals); lo += coreChunk {
		hi := min(lo+coreChunk, len(arrivals))
		total += rec.timed("core.ShrinkCapacity", hi-lo, func() {
			for _, j := range arrivals[lo:hi] {
				if _, err = alg.ShrinkCapacity(j); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("core: shrink: %w", err)
		}
	}
	n := float64(len(phase1) + len(arrivals))
	out["core.allocs_per_offer"] = float64(mallocs()-m0) / n
	out["core.offer_us"] = total.Seconds() * 1e6 / n
	out["core.aug_steps_per_offer"] = float64(alg.Augmentations()) / n
	out["core.preemptions_per_offer"] = float64(alg.Preemptions()) / n
	return nil
}

// ladderEngine submits the sequence to a fresh engine with SubmitBatch at
// the served batch size and returns its decisions, in ID order.
func ladderEngine(rec *recorder, caps []int, reqs []problem.Request, cfg engine.Config, out map[string]float64) ([]engine.Decision, error) {
	eng, err := engine.New(caps, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ctx := context.Background()
	decs := make([]engine.Decision, 0, len(reqs))
	m0 := mallocs()
	var total time.Duration
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		var ds []engine.Decision
		total += rec.timed("engine.SubmitBatch", hi-lo, func() { ds, err = eng.SubmitBatch(ctx, reqs[lo:hi]) })
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		decs = append(decs, ds...)
	}
	n := float64(len(reqs))
	out["engine.allocs_per_decision"] = float64(mallocs()-m0) / n
	out["engine.submit_us"] = total.Seconds() * 1e6 / n
	snap := eng.Snapshot()
	out["engine.cross_shard_frac"] = ratio(float64(snap.CrossShard), float64(snap.Requests))
	return decs, nil
}

// decisionLine renders an engine decision as the server's NDJSON line.
func decisionLine(d engine.Decision) server.DecisionJSON {
	line := server.DecisionJSON{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
	if d.Err != nil {
		line.Error = d.Err.Error()
	}
	return line
}

// ladderJSON times the server's JSON codec: decoding submission bodies
// with DecodeJSONBatch and encoding decision lines with a json.Encoder,
// as the server's NDJSON sink does.
func ladderJSON(rec *recorder, reqs []problem.Request, decs []engine.Decision, out map[string]float64) error {
	var dec, enc time.Duration
	var buf bytes.Buffer
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		body, err := json.Marshal(reqs[lo:hi])
		if err != nil {
			return err
		}
		dec += rec.timed("server.DecodeJSONBatch", hi-lo, func() { _, err = server.DecodeJSONBatch[problem.Request](body) })
		if err != nil {
			return fmt.Errorf("json decode: %w", err)
		}
		buf.Reset()
		e := json.NewEncoder(&buf)
		enc += rec.timed("server.json.Encode", hi-lo, func() {
			for _, d := range decs[lo:hi] {
				if err = e.Encode(decisionLine(d)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("json encode: %w", err)
		}
	}
	n := float64(len(reqs))
	out["server.json_decode_ns_per_item"] = float64(dec.Nanoseconds()) / n
	out["server.json_encode_ns_per_item"] = float64(enc.Nanoseconds()) / n
	return nil
}

// wireCodec frames item i of a workload's requests and decisions, and
// decodes one frame payload of each back.
type wireCodec struct {
	appendRequest, appendDecision func(buf []byte, i int) []byte
	decodeRequest, decodeDecision func(payload []byte) error
}

// ladderWire times the wire codec: framing each served batch as a
// submission body plus its decision stream, then decoding both.
func ladderWire(rec *recorder, n int, c wireCodec, out map[string]float64) error {
	var encT, decT time.Duration
	var bytesTotal int
	var body, stream []byte
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		encT += rec.timed("wire.encode", hi-lo, func() {
			body = wire.AppendSubmitHeader(body[:0], hi-lo)
			stream = stream[:0]
			for i := lo; i < hi; i++ {
				body = c.appendRequest(body, i)
				stream = c.appendDecision(stream, i)
			}
		})
		bytesTotal += len(body) + len(stream)
		var err error
		decT += rec.timed("wire.decode", hi-lo, func() { err = decodeChunk(body, stream, c) })
		if err != nil {
			return fmt.Errorf("wire decode: %w", err)
		}
	}
	out["wire.encode_ns_per_item"] = float64(encT.Nanoseconds()) / float64(n)
	out["wire.decode_ns_per_item"] = float64(decT.Nanoseconds()) / float64(n)
	out["wire.bytes_per_item"] = float64(bytesTotal) / float64(n)
	return nil
}

// decodeChunk decodes a framed submission body and decision stream.
func decodeChunk(body, stream []byte, c wireCodec) error {
	count, rest, err := wire.ReadSubmitHeader(body)
	if err != nil {
		return err
	}
	var payload []byte
	for k := 0; k < count; k++ {
		if payload, rest, err = wire.NextFrame(rest); err != nil {
			return err
		}
		if err = c.decodeRequest(payload); err != nil {
			return err
		}
	}
	for rest = stream; len(rest) > 0; {
		if payload, rest, err = wire.NextFrame(rest); err != nil {
			return err
		}
		if err = c.decodeDecision(payload); err != nil {
			return err
		}
	}
	return nil
}

func admissionWire(reqs []problem.Request, decs []engine.Decision) wireCodec {
	var ar wire.AdmissionRequest
	var ad wire.AdmissionDecision
	return wireCodec{
		appendRequest: func(buf []byte, i int) []byte {
			return wire.AppendAdmissionRequest(buf, reqs[i].Edges, reqs[i].Cost)
		},
		appendDecision: func(buf []byte, i int) []byte {
			d := decs[i]
			wd := wire.AdmissionDecision{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
			return wire.AppendAdmissionDecision(buf, &wd)
		},
		decodeRequest:  func(p []byte) error { return wire.DecodeAdmissionRequest(p, &ar) },
		decodeDecision: func(p []byte) error { return wire.DecodeAdmissionDecision(p, &ad) },
	}
}

func coverWire(arrivals []int, decs []coverengine.Decision) wireCodec {
	var cd wire.CoverDecision
	return wireCodec{
		appendRequest: func(buf []byte, i int) []byte { return wire.AppendCoverRequest(buf, arrivals[i]) },
		appendDecision: func(buf []byte, i int) []byte {
			d := decs[i]
			wd := wire.CoverDecision{Seq: d.Seq, Element: d.Element, Arrival: d.Arrival, NewSets: d.NewSets, AddedCost: d.AddedCost}
			return wire.AppendCoverDecision(buf, &wd)
		},
		decodeRequest: func(p []byte) error {
			_, err := wire.DecodeCoverRequest(p)
			return err
		},
		decodeDecision: func(p []byte) error { return wire.DecodeCoverDecision(p, &cd) },
	}
}

// ladderWAL appends the decided sequence to a fresh log in a scratch
// directory, syncing once per served batch as group commit does.
func ladderWAL(rec *recorder, fingerprint string, reqs []problem.Request, decs []engine.Decision, out map[string]float64) error {
	dir, err := os.MkdirTemp(scratchDir, "wal-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "admission"), wal.Options{Kind: wal.KindAdmission, Fingerprint: fingerprint})
	if err != nil {
		return err
	}
	var appendT, syncT time.Duration
	syncs := 0
	r := wal.Record{Kind: wal.KindAdmission}
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		appendT += rec.timed("wal.Append", hi-lo, func() {
			for i := lo; i < hi && err == nil; i++ {
				d := decs[i]
				r.AdmissionReq = wire.AdmissionRequest{Edges: reqs[i].Edges, Cost: reqs[i].Cost}
				r.AdmissionDec = wire.AdmissionDecision{ID: d.ID, Accepted: d.Accepted, CrossShard: d.CrossShard, Preempted: d.Preempted}
				_, err = log.Append(&r)
			}
		})
		if err != nil {
			log.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		syncT += rec.timed("wal.Sync", 1, func() { err = log.Sync() })
		syncs++
		if err != nil {
			log.Close()
			return fmt.Errorf("wal sync: %w", err)
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	out["wal.append_us_per_record"] = appendT.Seconds() * 1e6 / float64(len(reqs))
	out["wal.sync_ms"] = syncT.Seconds() * 1e3 / float64(syncs)
	return nil
}

// ladderCoverEngine submits the arrivals to a fresh cover engine with
// SubmitBatch at the served batch size and returns its decisions.
func ladderCoverEngine(rec *recorder, ins *setcover.Instance, arrivals []int, cfg coverengine.Config, out map[string]float64) ([]coverengine.Decision, error) {
	cov, err := coverengine.New(ins, cfg)
	if err != nil {
		return nil, err
	}
	defer cov.Close()
	ctx := context.Background()
	decs := make([]coverengine.Decision, 0, len(arrivals))
	m0 := mallocs()
	var total time.Duration
	sets := 0
	for lo := 0; lo < len(arrivals); lo += batch {
		hi := min(lo+batch, len(arrivals))
		var ds []coverengine.Decision
		total += rec.timed("coverengine.SubmitBatch", hi-lo, func() { ds, err = cov.SubmitBatch(ctx, arrivals[lo:hi]) })
		if err != nil {
			return nil, fmt.Errorf("coverengine: %w", err)
		}
		for _, d := range ds {
			if d.Err != nil {
				return nil, fmt.Errorf("coverengine: arrival %d: %w", d.Seq, d.Err)
			}
			sets += len(d.NewSets)
		}
		decs = append(decs, ds...)
	}
	n := float64(len(arrivals))
	out["coverengine.allocs_per_arrival"] = float64(mallocs()-m0) / n
	out["coverengine.submit_us"] = total.Seconds() * 1e6 / n
	out["coverengine.sets_per_1k_arrivals"] = float64(sets) * 1000 / n
	return decs, nil
}

// ladderSetcover serves the arrivals through the sequential §4 runner.
func ladderSetcover(rec *recorder, ins *setcover.Instance, arrivals []int, seed uint64, out map[string]float64) error {
	run, err := setcover.NewReductionRunner(ins, setcover.ReductionConfig{Seed: seed})
	if err != nil {
		return err
	}
	var total time.Duration
	for lo := 0; lo < len(arrivals); lo += coreChunk {
		hi := min(lo+coreChunk, len(arrivals))
		total += rec.timed("setcover.Arrive", hi-lo, func() {
			for _, j := range arrivals[lo:hi] {
				if _, err = run.Arrive(j); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	out["setcover.arrive_us"] = total.Seconds() * 1e6 / float64(len(arrivals))
	return nil
}
