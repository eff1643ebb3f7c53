// Package host implements the NVMe-style multi-queue host interface and
// event-driven scheduler that sits between the workload drivers and an
// FTL. It is the concurrency layer of the simulator: where the classic
// path issues one request, retires it, and only then looks at the next,
// the scheduler keeps a configurable number of requests outstanding,
// arbitrates which one the FTL sees next, and completes them out of
// order at the times the device's resource timelines actually drain.
//
// # Model
//
// Host requests are submitted into N submission-queue lanes and routed
// into per-chip command queues (reads by their current mapping, obtained
// through the FTL's ftl.ChipProbe; writes round-robin across chips, a
// proxy for the FTLs' striped wear-leveled allocation). A central event
// loop — a priority queue keyed on sim.Time with a submission-sequence
// tie-break — pops completion (and, open loop, arrival) events; after
// every event a pluggable arbiter picks the next dispatchable command
// from the chip-queue heads. The chip queues are derived from one list
// of undispatched commands in submission order, so selection work grows
// with the commands in flight rather than with the chip count. Dispatch
// issues the command to the FTL via its non-blocking ftl.Submitter path;
// the command's completion time is recovered by diffing the device's
// per-resource FreeAt snapshots around the call, so a request that fans
// out across several chips and channel buses completes when its slowest
// fragment drains, independent of every other in-flight request.
//
// Maintenance traffic (FTL.Tick: retention scrubbing) is admitted as a
// background-class command that yields to pending host reads, up to a
// bounded deferral.
//
// # Ordering
//
// The scheduler may reorder freely except across data hazards: a command
// is never dispatched before an earlier-submitted command whose sector
// range overlaps it when either is a write or trim. This is the ordering
// barrier that makes a read submitted after a write to the same LPN
// observe that write at any queue depth and under any arbiter.
//
// # Determinism
//
// Everything is deterministic: the event heap breaks time ties on
// submission sequence, arbitration scans fixed-order slices, and no map
// iteration or wall-clock input exists anywhere on the path. The same
// seed and configuration produce the identical event order, stats, and
// latency histograms. At queue depth 1 with the FIFO arbiter the
// scheduler degenerates to exactly the classic serial replay: the same
// FTL call sequence at the same virtual clock, bit-for-bit.
package host

import (
	"fmt"

	"espftl/internal/metrics"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Class partitions commands for arbitration and latency accounting.
type Class uint8

// Command classes. Reads and writes are host traffic; Background is
// FTL maintenance (retention scrubbing via Tick) admitted between host
// commands.
const (
	ClassRead Class = iota
	ClassWrite
	ClassBackground
)

// String names the class in reports.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassBackground:
		return "background"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Command is one scheduled unit: a host request or a background
// maintenance tick, tracked from submission to completion.
type Command struct {
	// Seq is the global submission order, the identity used by the
	// ordering barrier and all deterministic tie-breaks.
	Seq int64
	// Queue is the submission-queue lane the command arrived on.
	Queue int
	// Class drives arbitration and latency accounting.
	Class Class
	// Req is the host request (zero for background commands).
	Req workload.Request
	// Chip is the command-queue index the command was routed to; the
	// index one past the last chip is the unrouted queue (background
	// work, buffer hits, unmapped reads).
	Chip int
	// Arrival, Dispatch and Complete are the command's lifecycle times
	// on the scheduler's virtual axis.
	Arrival, Dispatch, Complete sim.Time
	// DispatchIdx is the order the FTL saw the command in (-1 before
	// dispatch).
	DispatchIdx int64
	// Fanout is how many device resources (chips and channel buses) the
	// command's FTL call occupied — the transaction-split width.
	Fanout int
	// Err is the FTL error the command's dispatch produced. It is only
	// populated in external-submission mode (RunExternal), where a failed
	// command still completes and reports its error to the submitter; the
	// run-to-completion drivers abort on the first error instead.
	Err error
	// FlashBytes is how many device bytes were programmed while servicing
	// this command (host data plus any GC/relocation work it triggered).
	// Only accounted in external-submission mode, where the service
	// attributes write amplification to tenant namespaces.
	FlashBytes int64

	// deferred counts events a background command yielded to host reads.
	deferred int
	// done delivers the completed command to an external submitter.
	done func(*Command)
	// comp is the recycling-aware delivery path: when set, it is invoked
	// instead of done and the record returns to the scheduler freelist
	// as soon as Complete returns.
	comp Completion
}

// latency is the command's completion minus arrival; by construction it
// is never negative (completion events are clamped to the arrival).
func (c *Command) latency() sim.Duration { return c.Complete.Sub(c.Arrival) }

// Report aggregates everything one scheduler run measured.
type Report struct {
	// Arbiter, Depth and Queues echo the configuration.
	Arbiter string
	Depth   int
	Queues  int

	// Submitted/Dispatched/Completed count host commands; Background
	// counts maintenance commands.
	Submitted, Dispatched, Completed int64
	Background                       int64

	// Errors counts host commands that completed with an FTL error
	// (external-submission mode only; the loop drivers abort instead).
	Errors int64
	// Rejected counts external submissions refused before queueing
	// (validation failures); they are not part of Submitted/Completed.
	Rejected int64

	// OutOfOrder counts host completions that retired while an
	// earlier-submitted host command was still outstanding.
	OutOfOrder int64
	// ReadsPromoted counts reads the arbiter dispatched ahead of an
	// earlier-submitted, still-pending write (read-priority at work).
	ReadsPromoted int64
	// BackgroundDeferred counts arbitration rounds in which a background
	// command yielded to pending host reads.
	BackgroundDeferred int64

	// Latency histograms per class (completion minus arrival), plus the
	// merged host distribution the headline percentiles come from.
	HostLat, ReadLat, WriteLat, BackLat *metrics.Histogram
	// Wait histograms (dispatch minus arrival): time spent queued in the
	// host layer before the FTL saw the command.
	ReadWait, WriteWait *metrics.Histogram

	// Fanout is the distribution of resources touched per host command —
	// how widely transactions split across the device.
	Fanout *metrics.IntHistogram

	// QueueDepth samples outstanding host commands over event time, and
	// ChipUtil samples the device's mean chip busy fraction.
	QueueDepth *metrics.Series
	ChipUtil   *metrics.Series

	// PerQueue counts submissions per submission-queue lane.
	PerQueue []int64
}

func newReport(arb string, depth, queues int) *Report {
	return &Report{
		Arbiter:   arb,
		Depth:     depth,
		Queues:    queues,
		HostLat:   metrics.NewHistogram(),
		ReadLat:   metrics.NewHistogram(),
		WriteLat:  metrics.NewHistogram(),
		BackLat:   metrics.NewHistogram(),
		ReadWait:  metrics.NewHistogram(),
		WriteWait: metrics.NewHistogram(),
		Fanout:    metrics.NewIntHistogram(64),
		// 512 retained samples keep the series readable in reports while
		// the deterministic decimation bounds memory on long runs.
		QueueDepth: metrics.NewSeries(512),
		ChipUtil:   metrics.NewSeries(512),
		PerQueue:   make([]int64, queues),
	}
}

// String renders the headline numbers of the report.
func (r *Report) String() string {
	h := r.HostLat.Summary()
	return fmt.Sprintf("arb=%s qd=%d queues=%d done=%d ooo=%d p50=%v p99=%v",
		r.Arbiter, r.Depth, r.Queues, r.Completed, r.OutOfOrder, h.P50, h.P99)
}
