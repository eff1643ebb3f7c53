package host

import (
	"fmt"
	"time"

	"espftl/internal/sim"
	"espftl/internal/workload"
)

// This file is the scheduler's external-submission mode: instead of a
// generator-driven closed/open loop, requests arrive on a channel from
// concurrent producers (the network service's connection readers) and
// every completion is delivered back through a per-request callback. The
// scheduler remains single-threaded — the channel is the only
// synchronization point — so the FTL and device keep their
// deterministic, single-caller world even with hundreds of concurrent
// clients upstream.

// Completion receives a completed command. It is invoked exactly once
// on the scheduler goroutine when the command completes (or is rejected
// before queueing); the command's Err field carries the FTL error, if
// any, and Arrival/Complete give its virtual-time lifecycle. Complete
// must not block: it runs inside the event loop, and a slow receiver
// stalls every tenant. The command returns to the scheduler's freelist
// as soon as Complete returns, so the receiver must copy anything it
// needs and must not retain the *Command past the call.
type Completion interface {
	Complete(c *Command)
}

// ExtSubmission is one externally produced request plus the receiver
// of its outcome (a nil Complete drops it).
type ExtSubmission struct {
	Req      workload.Request
	Complete Completion
}

// RunExternal services submissions from sub until the channel is closed
// and every accepted command has completed, returning the run's report.
// The gate paces the virtual clock against the wall clock: completions
// are delivered no earlier than their virtual completion instant, and
// arrivals stamp the gate's wall-mapped virtual time, so simulated
// device latencies shape the latencies external clients observe. A nil
// or non-pacing gate runs as fast as possible (tests, batch replays).
//
// Unlike the loop drivers, a command's FTL error does not abort the run:
// the command completes carrying the error (Command.Err), because one
// tenant's failure — or even a dead device, which fails every
// subsequent command — must drain through the protocol, not collapse it.
func (s *Scheduler) RunExternal(sub <-chan ExtSubmission, gate *sim.Gate) (*Report, error) {
	if err := s.start(0); err != nil {
		return nil, err
	}
	s.external = true
	var timer *time.Timer
	open := true
	for {
		if err := s.dispatchRound(); err != nil {
			return s.finish(err)
		}
		if len(s.events) == 0 {
			if !open {
				if len(s.pending) > 0 || s.bg != nil {
					return s.finish(fmt.Errorf("host: external run stalled with %d pending commands and no events", len(s.pending)))
				}
				return s.finish(nil)
			}
			r, ok := <-sub
			if !ok {
				open = false
			} else {
				s.acceptExt(r, gate)
				s.drainQueued(sub, gate, &open)
			}
			continue
		}
		next := s.events[0].at
		if open {
			if wait := gateWait(gate, next); wait > 0 {
				// The next completion lies in the wall-clock future: wait
				// for it, but wake immediately for new submissions.
				if timer == nil {
					timer = time.NewTimer(wait)
				} else {
					timer.Reset(wait)
				}
				select {
				case r, ok := <-sub:
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
					if !ok {
						open = false
					} else {
						s.acceptExt(r, gate)
						s.drainQueued(sub, gate, &open)
					}
					continue
				case <-timer.C:
				}
			} else {
				// The completion is already due; still drain any queued
				// submissions first so arrivals are not starved by a
				// backlog of ready events.
				select {
				case r, ok := <-sub:
					if !ok {
						open = false
					} else {
						s.acceptExt(r, gate)
						s.drainQueued(sub, gate, &open)
					}
					continue
				default:
				}
			}
		} else if gate.Realtime() {
			// Draining: no new arrivals, but in-flight completions keep
			// their paced delivery times.
			gate.Wait(next)
		}
		ev := s.events.pop()
		if ev.at > s.now {
			s.now = ev.at
		}
		c := ev.cmd
		s.complete(c)
		if c.Class != ClassBackground {
			if c.comp != nil {
				c.comp.Complete(c)
				s.freeCmd(c)
			}
		}
		s.sampleSeries()
	}
}

// drainQueued greedily accepts submissions already sitting in the
// channel after a blocking receive, so one scheduler wake admits a whole
// burst and the following dispatch round arbitrates over the full batch
// instead of one command at a time. Bounded by Config.ExtBatch; the
// default batch of 1 makes this a no-op (see the ExtBatch doc for why
// batching must be opt-in).
func (s *Scheduler) drainQueued(sub <-chan ExtSubmission, gate *sim.Gate, open *bool) {
	for i := 1; i < s.cfg.ExtBatch; i++ {
		select {
		case r, ok := <-sub:
			if !ok {
				*open = false
				return
			}
			s.acceptExt(r, gate)
		default:
			return
		}
	}
}

// acceptExt stamps an external arrival onto the virtual axis and queues
// it; a request the scheduler rejects outright (validation) completes
// immediately with the error attached.
func (s *Scheduler) acceptExt(r ExtSubmission, gate *sim.Gate) {
	if gate.Realtime() {
		v := gate.VirtualNow()
		s.clock.AdvanceTo(v)
		if v > s.now {
			s.now = v
		}
	}
	c, err := s.submitCmd(r.Req)
	if err != nil {
		s.rep.Rejected++
		if r.Complete == nil {
			return
		}
		rc := s.newCmd()
		rc.Req, rc.Err, rc.Chip = r.Req, err, s.chips
		rc.Arrival, rc.Dispatch, rc.Complete = s.now, s.now, s.now
		rc.DispatchIdx = -1
		r.Complete.Complete(rc)
		s.freeCmd(rc)
		return
	}
	c.comp = r.Complete
}

// gateWait returns how long the wall clock must run before the virtual
// instant v is due; 0 when the gate does not pace.
func gateWait(gate *sim.Gate, v sim.Time) time.Duration {
	if !gate.Realtime() {
		return 0
	}
	return gate.WallUntil(v)
}
