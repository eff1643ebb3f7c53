// Package ftl defines the flash translation layer interface shared by the
// three FTLs the paper compares (cgmFTL, fgmFTL, subFTL), plus the
// building blocks they share: block lifecycle management with wear-aware
// allocation, greedy victim selection, and the per-sector version/origin
// tracker that powers both data-integrity checking and the paper's
// request-WAF metric.
package ftl

import (
	"errors"
	"fmt"

	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// ErrReadOnly reports a write to an FTL whose spare capacity has been
// exhausted by bad blocks: the device degrades to read-only service
// rather than wedging inside garbage collection.
var ErrReadOnly = errors.New("ftl: device degraded to read-only (spare capacity exhausted by bad blocks)")

// FTL is the host-facing interface of a flash translation layer. All
// addresses are logical sectors of S_sub bytes. Implementations are
// single-threaded, matching the deterministic simulator.
type FTL interface {
	// Name identifies the FTL in reports ("cgmFTL", "fgmFTL", "subFTL").
	Name() string
	// Write services a host write of sectors starting at lsn. sync marks
	// a synchronous write that must reach flash without buffer merging.
	Write(lsn int64, sectors int, sync bool) error
	// Read services a host read.
	Read(lsn int64, sectors int) error
	// Trim invalidates a logical range.
	Trim(lsn int64, sectors int) error
	// Flush forces any buffered writes to flash.
	Flush() error
	// Tick lets the FTL run time-based maintenance (retention scrubbing).
	// The harness calls it between requests; FTLs without time-based work
	// treat it as a no-op.
	Tick() error
	// Stats returns a snapshot of the FTL's counters.
	Stats() Stats
	// Check verifies internal invariants, returning the first violation.
	// It is for tests and debugging; it must not change state.
	Check() error
	// Recover rebuilds the FTL's RAM state from the device after a power
	// loss: one OOB scan of every block, no payload reads. It must be
	// called on a freshly constructed FTL (mount time), before any host
	// I/O; calling it on a blank device yields an empty report and a
	// ready, empty FTL.
	Recover() (MountReport, error)
}

// MountReport summarizes one Recover pass.
type MountReport struct {
	// PagesScanned counts the whole-page OOB senses the scan issued.
	PagesScanned int64
	// BlocksAdopted counts non-empty blocks taken over from the pre-crash
	// state (conservatively adopted as full, GC-eligible blocks).
	BlocksAdopted int
	// TornPages counts subpage slots quarantined because power died
	// mid-program.
	TornPages int64
	// StaleSubpages counts valid OOB records that lost duplicate-LPN
	// resolution (an older generation superseded by a higher sequence
	// number).
	StaleSubpages int64
	// LiveSectors counts logical sectors restored into the mapping.
	LiveSectors int64
	// MaxSeq is the highest program sequence number observed.
	MaxSeq uint64
	// Duration is the virtual time the mount occupied the device (the
	// drain-horizon growth caused by the scan).
	Duration sim.Duration
}

// String renders the report for tool output.
func (r MountReport) String() string {
	return fmt.Sprintf("scanned %d pages, adopted %d blocks, %d live sectors, %d stale, %d torn, maxSeq %d in %v",
		r.PagesScanned, r.BlocksAdopted, r.LiveSectors, r.StaleSubpages, r.TornPages, r.MaxSeq, r.Duration)
}

// HealthProber exposes whether the FTL has degraded to read-only
// service (spare capacity exhausted by grown-bad blocks). The network
// server uses it after a remount to decide whether a fenced namespace
// can return to healthy or must land directly in read-only. The probe
// must not change state.
type HealthProber interface {
	ReadOnly() bool
}

// VersionProber exposes the FTL's view of a sector's recovered version: the
// version of the live copy a read would return, or 0 when the sector is
// unmapped. The crash-consistency checker compares it against the reference
// model's acceptable set.
type VersionProber interface {
	VersionOf(lsn int64) uint32
}

// OOB region tags, stamped into every program so the mount-time scan can
// dispatch a block to the mapping table that owns it. A round-0 subpage
// pass is otherwise indistinguishable from a full-page program.
const (
	// TagNone marks legacy/untagged programs (direct device-level tests).
	TagNone uint8 = 0
	// TagFull marks the page-mapped full-page region (cgmFTL's whole
	// space; subFTL's full-page region).
	TagFull uint8 = 1
	// TagFine marks fgmFTL's packed fine-grain pages.
	TagFine uint8 = 2
	// TagSub marks subFTL's ESP subpage region.
	TagSub uint8 = 3
)

// CompletionFunc is invoked exactly once when a submitted request has
// been fully issued to the device, with the error the synchronous path
// would have returned. In the single-threaded simulator the callback
// runs before Submit returns; the indirection exists so the host
// scheduler's dispatch path is shaped like a real driver's and callers
// never depend on a return value that a future truly-asynchronous FTL
// would not have.
type CompletionFunc func(err error)

// Submitter is the non-blocking issue path of an FTL: Submit accepts one
// host request and reports its outcome through done. The host scheduler
// prefers this path over the synchronous FTL methods when available.
type Submitter interface {
	Submit(r workload.Request, done CompletionFunc)
}

// ChipProbe lets the host scheduler route reads to per-chip command
// queues: ChipOf returns the chip currently holding logical sector lsn,
// or -1 when the sector is unmapped or buffered (in which case the read
// does not contend for any chip queue slot). The probe must not change
// FTL state or touch the device.
type ChipProbe interface {
	ChipOf(lsn int64) int
}

// SubmitSync adapts an FTL's synchronous interface to the Submit
// signature: it issues r via Write/Read/Trim and reports the outcome
// through done. FTLs embed it to implement Submitter in one line.
func SubmitSync(f FTL, r workload.Request, done CompletionFunc) {
	var err error
	switch r.Op {
	case workload.OpWrite:
		err = f.Write(r.LSN, r.Sectors, r.Sync)
	case workload.OpRead:
		err = f.Read(r.LSN, r.Sectors)
	case workload.OpTrim:
		err = f.Trim(r.LSN, r.Sectors)
	case workload.OpFlush:
		err = f.Flush()
	default:
		err = fmt.Errorf("ftl: cannot submit op %v", r.Op)
	}
	if done != nil {
		done(err)
	}
}

// Stats aggregates the counters the experiments report. Fields that only
// one FTL produces are zero elsewhere.
type Stats struct {
	// Host-visible traffic.
	HostWriteReqs, HostReadReqs, HostTrimReqs int64
	HostSectorsWritten, HostSectorsRead       int64

	// Small writes (requests shorter than a full page) and the flash
	// bytes attributed to their data, including later relocations — the
	// numerator/denominator of the paper's average request WAF.
	SmallWriteReqs  int64
	SmallHostBytes  int64
	SmallFlashBytes int64

	// Mechanisms.
	RMWOps         int64 // read-modify-write operations
	GCInvocations  int64 // garbage collection victim selections
	GCMovedSectors int64 // valid sectors copied by GC
	GCSteps        int64 // incremental collection steps (one per budgeted increment)
	GCPagesCopied  int64 // relocation programs issued by the collectors
	GCPreemptions  int64 // background steps that stopped at the page budget
	RoundAdvances  int64 // subFTL: erase-free round advancements of a block
	SubShifts      int64 // subFTL: valid subpages shifted to the next subpage
	Evictions      int64 // subFTL: cold subpages evicted to the full-page region
	RetentionMoves int64 // subFTL: subpages moved because of retention age
	RegionReclaims int64 // subFTL: empty subpage blocks converted back to the pool
	BufferAbsorbed int64 // writes absorbed entirely in the write buffer
	ReadBufferHits int64 // reads served from the write buffer

	// Recovery mechanisms (all zero without fault injection).
	ProgramFailMoves int64 // writes replayed on a fresh block after a program failure
	ScrubRewrites    int64 // subFTL: near-expiry subpages rewritten by the scrubber
	// GrownBadBlocks snapshots the retired-block count (factory plus
	// grown) at Stats() time: a gauge, summed across shards but not
	// diffed by Sub.
	GrownBadBlocks int64 `metrics:"gauge"`

	// GCPolicy names the victim-selection policy driving the collectors
	// ("greedy", "cost-benefit", "windowed"); a label, not a counter.
	GCPolicy string

	// Lifetime subsystem (all zero unless internal/lifetime is wired in).
	// ErasePolicy labels the erase-depth policy ("fixed-deep", "aero");
	// empty means no policy installed (legacy full-depth erases).
	ErasePolicy string
	// LifetimeObserves counts predictor updates (one per observed page
	// write); the Hot/Cold/Unknown counters tally the classification of
	// every write the placement logic consulted the predictor for.
	LifetimeObserves      int64
	LifetimeHotWrites     int64
	LifetimeColdWrites    int64
	LifetimeUnknownWrites int64
	// LifetimeSteered counts subFTL small writes steered into the
	// full-page region because their data was predicted cold (writes that
	// size-only routing would have sent to the subpage region).
	LifetimeSteered int64
	// LifetimeSegregated counts full-page programs routed to a cold
	// append stripe by the hot/cold block segregation in fgm/cgm and
	// subFTL's full-page region.
	LifetimeSegregated int64

	// Wear snapshots the per-block wear distribution at Stats() time. It
	// is neither diffed nor summed: a fleet view rebuilds it from every
	// shard's blocks through WearAcc.
	Wear WearDist `metrics:"keep"`

	// MappingBytes is the L2P translation memory footprint (a gauge).
	MappingBytes int64 `metrics:"gauge"`

	// SectorBytes is the logical sector size, recorded so derived metrics
	// need no out-of-band configuration.
	SectorBytes int64 `metrics:"keep"`

	// Device mirrors the NAND-level counters at snapshot time.
	Device nand.Counters
}

// Sub returns the counter-wise difference s - prev, used by the experiment
// harness to isolate the measured phase from preconditioning. It is
// metrics.Sub over the field kinds declared on Stats: every counter
// (nand.Counters included) is diffed, while gauges (GrownBadBlocks,
// MappingBytes), labels and kept fields (Wear, SectorBytes) keep s's
// values.
func (s Stats) Sub(prev Stats) Stats {
	metrics.Sub(&s, &prev)
	return s
}

// WearDist is a snapshot of the per-block wear distribution of a device:
// raw erase counts and effective wear (deep-erase equivalents, which
// diverge from erase counts once adaptive erase runs shallow cycles).
// P99 is nearest-rank over all physical blocks.
type WearDist struct {
	Blocks    int
	EraseMin  int
	EraseMax  int
	EraseMean float64
	EraseP99  int
	WearMin   float64
	WearMax   float64
	WearMean  float64
	WearP99   float64
}

// AvgRequestWAF returns the paper's "average request WAF" of small writes:
// flash bytes written on behalf of small-request data divided by the bytes
// those requests carried. It returns 0 when no small writes occurred.
func (s Stats) AvgRequestWAF() float64 {
	if s.SmallHostBytes == 0 {
		return 0
	}
	return float64(s.SmallFlashBytes) / float64(s.SmallHostBytes)
}

// OverallWAF returns total flash bytes programmed over host bytes written.
func (s Stats) OverallWAF() float64 {
	host := s.HostSectorsWritten * s.SectorBytes
	if host == 0 {
		return 0
	}
	return float64(s.Device.BytesWritten) / float64(host)
}

// String renders the headline counters.
func (s Stats) String() string {
	return fmt.Sprintf("writes=%d reads=%d small=%d rmw=%d gc=%d erases=%d reqWAF=%.3f",
		s.HostWriteReqs, s.HostReadReqs, s.SmallWriteReqs, s.RMWOps,
		s.GCInvocations, s.Device.Erases, s.AvgRequestWAF())
}
