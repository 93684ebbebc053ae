package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/bftcup/bftcup/internal/cryptox"
	"github.com/bftcup/bftcup/internal/discovery"
	"github.com/bftcup/bftcup/internal/graph"
	"github.com/bftcup/bftcup/internal/kosr"
	"github.com/bftcup/bftcup/internal/model"
	"github.com/bftcup/bftcup/internal/netrt"
	"github.com/bftcup/bftcup/internal/sim"
	"github.com/bftcup/bftcup/internal/wire"
)

// Kernels are direct calls into one layer with no stack around it: the
// engine ring, the search replays and the crypto costs that cmd/experiments
// -bench-json and the root bench_test.go also measure, through the same
// public calls. A layer's stand-alone cost times its traced share predicts
// how far an end-to-end number can move.

// kernelSink keeps results alive so the measured calls cannot be elided.
var kernelSink int64

// timeMedian runs f reps times and returns the median wall time in ns.
func timeMedian(reps int, f func()) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		start := time.Now()
		f()
		ns[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ns)
}

// clockSink receives the calibration loop's reads.
var clockSink time.Time

// calibrateClock returns the cost of one clock read in ns; the traced pass
// makes about six per event.
func calibrateClock() float64 {
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		clockSink = time.Now()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// addKernels measures every kernel and adds it to res. A kernel that cannot
// set up is reported on stderr and left at 0.
func addKernels(res *runResult) {
	if err := kernels(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench: kernels:", err)
	}
}

func kernels(res *runResult) error {
	// sim: the 64-process unicast ring, every cycle engine overhead.
	ring := sim.Workload{Procs: 64, Tokens: 64, Fanout: 1}
	var events int64
	var ringErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const ringReps = 5
	ns := timeMedian(ringReps, func() {
		n, err := sim.RunWorkload(ring)
		if err != nil {
			ringErr = err
		}
		events = n
	})
	runtime.ReadMemStats(&after)
	if ringErr != nil {
		return ringErr
	}
	res.set("sim.ring64_ns_per_event", ns/float64(events), ringReps)
	res.set("sim.ring64_allocs_per_op", float64(after.Mallocs-before.Mallocs)/ringReps, ringReps)

	// kosr: discovery replays on the 24-node k-OSR graph whose 15-member
	// sink sits just under ExactLimit (the search-replay workload of
	// -bench-json), once per committee rule.
	g24, _, err := graph.GenKOSR(rand.New(rand.NewSource(9)), graph.GenSpec{SinkSize: 15, NonSinkSize: 9, K: 3, ExtraEdgeP: 0.2})
	if err != nil {
		return err
	}
	replay := kosr.NewSearchReplay(g24)
	found := true
	res.set("kosr.core_replay24_ms", timeMedian(3, func() {
		found = found && replay.Run(func(se *kosr.Searcher, v *kosr.View) bool { _, ok := se.FindCore(v); return ok })
	})/1e6, 3)
	res.set("kosr.sink_replay24_ms", timeMedian(3, func() {
		found = found && replay.Run(func(se *kosr.Searcher, v *kosr.View) bool { _, ok := se.FindSinkKnownF(v, 2); return ok })
	})/1e6, 3)
	if !found {
		return fmt.Errorf("search replay on the full 24-node view found nothing")
	}

	// cryptox: key material for an 8-process system at a fresh seed, and one
	// signature check cold (Ed25519 + memo insert) and warm (memo hit).
	ids := make([]model.ID, 8)
	for i := range ids {
		ids[i] = model.ID(i + 1)
	}
	var keyErr error
	const keyReps = 9
	res.set("cryptox.keyring8_ms", timeMedian(keyReps, func() {
		flushSeed--
		if _, _, err := cryptox.Keyring(flushSeed, ids); err != nil {
			keyErr = err
		}
	})/1e6, keyReps)
	if keyErr != nil {
		return keyErr
	}
	signers, reg, err := cryptox.GenerateKeys(7, ids)
	if err != nil {
		return err
	}
	const sigs = 64
	msgs := make([][]byte, sigs)
	sig := make([][]byte, sigs)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("bench-verify-%d", i))
		sig[i] = signers[1].Sign(msgs[i])
	}
	verifyAll := func() float64 {
		ok := true
		start := time.Now()
		for i := range msgs {
			ok = reg.Verify(1, msgs[i], sig[i]) && ok
		}
		d := float64(time.Since(start).Nanoseconds()) / sigs
		if !ok {
			keyErr = fmt.Errorf("a valid signature failed verification")
		}
		return d
	}
	res.set("cryptox.verify_cold_us", verifyAll()/1e3, sigs)
	res.set("cryptox.verify_warm_ns", verifyAll(), sigs)
	if keyErr != nil {
		return keyErr
	}

	// discovery / wire: encode a full-view SETPDS of 16 records, and walk it
	// the way a receiver that already holds every record does.
	const records = 16
	recIDs := make([]model.ID, records)
	for i := range recIDs {
		recIDs[i] = model.ID(i + 1)
	}
	recSigners, _, err := cryptox.GenerateKeys(11, recIDs)
	if err != nil {
		return err
	}
	recs := make([]discovery.SignedPD, records)
	for i, id := range recIDs {
		pd := model.NewIDSet(recIDs[(i+1)%records], recIDs[(i+2)%records], recIDs[(i+3)%records], recIDs[(i+5)%records])
		recs[i] = discovery.NewSignedPD(recSigners[id], pd)
	}
	const loops = 2000
	var payload []byte
	ns = timeMedian(3, func() {
		for i := 0; i < loops; i++ {
			payload = discovery.EncodeSetPDs(recs)
		}
	})
	res.set("discovery.encode_setpds_ns_per_record", ns/loops/records, 3)
	var walkErr error
	ns = timeMedian(3, func() {
		for i := 0; i < loops; i++ {
			rd := wire.NewReader(payload[1:])
			n := rd.Uvarint()
			for j := uint64(0); j < n; j++ {
				kernelSink += int64(rd.ID())
				rd.SkipIDSet()
				rd.SkipBytesField()
			}
			if err := rd.Done(); err != nil {
				walkErr = err
			}
		}
	})
	if walkErr != nil {
		return walkErr
	}
	res.set("wire.setpds_walk_ns_per_record", ns/loops/records, 3)

	// netrt: one frame written and read back through the stream framing.
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	var scratch []byte
	var frameErr error
	ns = timeMedian(3, func() {
		for i := 0; i < loops; i++ {
			if err := netrt.WriteFrame(&buf, payload); err != nil {
				frameErr = err
			}
			got, err := netrt.ReadFrame(br, scratch, 0)
			if err != nil || len(got) != len(payload) {
				frameErr = fmt.Errorf("frame round trip: %v (%d of %d bytes)", err, len(got), len(payload))
			}
			scratch = got
		}
	})
	if frameErr != nil {
		return frameErr
	}
	res.set("netrt.frame_roundtrip_ns", ns/loops, 3)
	return nil
}
