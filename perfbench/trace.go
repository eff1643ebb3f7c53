package main

import (
	"bytes"
	"fmt"
	"time"

	"espftl/internal/ftl"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// spanFTL wraps one shard's FTL and records a span around every call the
// host scheduler makes into it. It forwards Submitter, ChipProbe,
// HealthProber and VersionProber, so the scheduler routes and dispatches
// exactly as it would without the wrapper. A shard's engine goroutine is
// its only caller once serving starts; the benchmark reads the records
// after the engine has retired.
type spanFTL struct {
	ftl.FTL
	sub ftl.Submitter
	cp  ftl.ChipProbe
	hp  ftl.HealthProber
	vp  ftl.VersionProber

	// writeNS and readNS are the spans of every write and read
	// submission: from the call to the FTL's completion callback, so the
	// server's completion work inside the callback is not counted.
	writeNS, readNS latencies
	// busyNS sums every recorded span (submissions and ticks).
	flushNS, tickNS, busyNS int64
	flushes, ticks, submits int64

	// mount is the report of the last Recover call.
	mount ftl.MountReport
}

func newSpanFTL(f ftl.FTL) *spanFTL {
	w := &spanFTL{FTL: f}
	w.sub, _ = f.(ftl.Submitter)
	w.cp, _ = f.(ftl.ChipProbe)
	w.hp, _ = f.(ftl.HealthProber)
	w.vp, _ = f.(ftl.VersionProber)
	return w
}

// Submit implements ftl.Submitter.
func (w *spanFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	start := time.Now()
	w.forward(r, func(err error) {
		ns := time.Since(start).Nanoseconds()
		w.submits++
		w.busyNS += ns
		switch r.Op {
		case workload.OpWrite:
			w.writeNS = append(w.writeNS, ns)
		case workload.OpRead:
			w.readNS = append(w.readNS, ns)
		case workload.OpFlush:
			w.flushNS += ns
			w.flushes++
		}
		done(err)
	})
}

func (w *spanFTL) forward(r workload.Request, done ftl.CompletionFunc) {
	if w.sub != nil {
		w.sub.Submit(r, done)
		return
	}
	ftl.SubmitSync(w.FTL, r, done)
}

// Tick implements ftl.FTL.
func (w *spanFTL) Tick() error {
	start := time.Now()
	err := w.FTL.Tick()
	ns := time.Since(start).Nanoseconds()
	w.tickNS += ns
	w.busyNS += ns
	w.ticks++
	return err
}

// Recover implements ftl.FTL.
func (w *spanFTL) Recover() (ftl.MountReport, error) {
	rep, err := w.FTL.Recover()
	w.mount = rep
	return rep, err
}

// ChipOf implements ftl.ChipProbe.
func (w *spanFTL) ChipOf(lsn int64) int {
	if w.cp == nil {
		return -1
	}
	return w.cp.ChipOf(lsn)
}

// ReadOnly implements ftl.HealthProber.
func (w *spanFTL) ReadOnly() bool { return w.hp != nil && w.hp.ReadOnly() }

// VersionOf implements ftl.VersionProber.
func (w *spanFTL) VersionOf(lsn int64) uint32 {
	if w.vp == nil {
		return 0
	}
	return w.vp.VersionOf(lsn)
}

// wireCost runs a run's own command and reply frames through the public
// codec in memory and returns the mean encode+decode cost of one command
// and of one reply, and the wire bytes per operation. It also checks that
// every frame decodes to what was encoded.
func wireCost(cmds []wire.Cmd, reps []wire.Reply) (cmdNS, replyNS, bytesPerOp float64, err error) {
	if len(cmds) == 0 || len(reps) == 0 {
		return 0, 0, 0, fmt.Errorf("no frames recorded")
	}
	cbuf := make([]byte, 0, 32*len(cmds))
	start := time.Now()
	for _, c := range cmds {
		cbuf = wire.AppendCmd(cbuf, c)
	}
	cr := wire.NewCmdReader(bytes.NewReader(cbuf))
	for i := range cmds {
		got, err := cr.Read()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("decoding command %d: %w", i, err)
		}
		if got != cmds[i] {
			return 0, 0, 0, fmt.Errorf("command %d decoded as %+v, sent %+v", i, got, cmds[i])
		}
	}
	cmdNS = float64(time.Since(start).Nanoseconds()) / float64(len(cmds))

	rbuf := make([]byte, 0, 32*len(reps))
	start = time.Now()
	for _, r := range reps {
		rbuf = wire.AppendReply(rbuf, r)
	}
	rr := wire.NewReplyReader(bytes.NewReader(rbuf))
	for i := range reps {
		got, err := rr.Read()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("decoding reply %d: %w", i, err)
		}
		if got.Tag != reps[i].Tag || got.Status != reps[i].Status || got.LatencyNS != reps[i].LatencyNS {
			return 0, 0, 0, fmt.Errorf("reply %d decoded as %+v, sent %+v", i, got, reps[i])
		}
	}
	replyNS = float64(time.Since(start).Nanoseconds()) / float64(len(reps))
	return cmdNS, replyNS, float64(len(cbuf)+len(rbuf)) / float64(len(cmds)), nil
}
