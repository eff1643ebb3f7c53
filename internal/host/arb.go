package host

import "fmt"

// Arbiter picks the next command to dispatch from the heads of the
// per-chip command queues. heads holds one command per non-empty queue
// (the unrouted queue included), in submission order — ascending Seq,
// never nil; dispatchable reports whether the scheduler's structural
// constraints — the ordering barrier, chip occupancy — currently allow a
// head to issue. Pick returns the chosen index into heads, or -1 to wait
// for the next event.
//
// Arbiters must be deterministic: decisions may depend only on the
// commands themselves, in fixed scan order.
type Arbiter interface {
	Name() string
	Pick(heads []*Command, dispatchable func(*Command) bool) int
}

// NewArbiter resolves an arbitration policy by name: "fifo" or
// "read-priority".
func NewArbiter(name string) (Arbiter, error) {
	switch name {
	case "", "fifo":
		return FIFO{}, nil
	case "read-priority", "readpriority", "rp":
		return &ReadPriority{}, nil
	}
	return nil, fmt.Errorf("host: unknown arbitration policy %q (want fifo or read-priority)", name)
}

// FIFO dispatches strictly by submission order among the dispatchable
// queue heads: the oldest command whose chip queue and hazards allow it.
type FIFO struct{}

// Name implements Arbiter.
func (FIFO) Name() string { return "fifo" }

// Pick implements Arbiter: heads are in submission order, so the first
// dispatchable one is the oldest.
func (FIFO) Pick(heads []*Command, dispatchable func(*Command) bool) int {
	for i, c := range heads {
		if dispatchable(c) {
			return i
		}
	}
	return -1
}

// ReadPriority dispatches the oldest dispatchable read before any write,
// the policy that keeps host read latency out of the shadow of long
// program and erase operations queued ahead of it. Writes cannot starve:
// once the oldest write has been bypassed starvationLimit times it is
// promoted ahead of further reads.
type ReadPriority struct {
	// StarvationLimit bounds how many times the oldest pending write may
	// be bypassed by younger reads; 0 means the default of 256.
	StarvationLimit int

	bypassed int64 // times the current oldest write was bypassed
	oldest   int64 // Seq of the write being tracked
}

// Name implements Arbiter.
func (*ReadPriority) Name() string { return "read-priority" }

// Pick implements Arbiter.
func (a *ReadPriority) Pick(heads []*Command, dispatchable func(*Command) bool) int {
	limit := a.StarvationLimit
	if limit <= 0 {
		limit = 256
	}
	// Heads are in submission order: the first dispatchable read and the
	// first dispatchable non-read are the oldest of their kind.
	bestRead, bestOther := -1, -1
	for i, c := range heads {
		if bestRead >= 0 && bestOther >= 0 {
			break
		}
		if c.Class == ClassRead {
			if bestRead < 0 && dispatchable(c) {
				bestRead = i
			}
		} else if bestOther < 0 && dispatchable(c) {
			bestOther = i
		}
	}
	if bestOther >= 0 {
		// Track bypasses of the oldest dispatchable non-read command.
		if heads[bestOther].Seq != a.oldest {
			a.oldest = heads[bestOther].Seq
			a.bypassed = 0
		}
		if bestRead > bestOther {
			if a.bypassed >= int64(limit) {
				return bestOther
			}
			a.bypassed++
		}
	}
	if bestRead >= 0 {
		return bestRead
	}
	return bestOther
}
