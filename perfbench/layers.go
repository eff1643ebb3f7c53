package main

import (
	"espftl/internal/ftl"
)

// ftlSpans are the spans recorded around the calls into the FTL layer.
type ftlSpans struct {
	writes, reads    latencies // sorted, ns
	tickNS, ticks    int64
	flushNS, flushes int64
	busyNS           int64
	// wallNS is the wall time the engines were available, summed over
	// engines: the base of the busy fraction.
	wallNS float64
}

func (s ftlSpans) report(r *report) {
	r.set("ftl.write_p50_ns", float64(s.writes.pct(50)), "ns")
	r.set("ftl.write_p99_ns", float64(s.writes.pct(99)), "ns")
	r.set("ftl.read_p50_ns", float64(s.reads.pct(50)), "ns")
	r.set("ftl.read_p99_ns", float64(s.reads.pct(99)), "ns")
	r.set("ftl.tick_mean_ns", ratio(float64(s.tickNS), float64(s.ticks)), "ns")
	r.set("ftl.flush_mean_ns", ratio(float64(s.flushNS), float64(s.flushes)), "ns")
	r.set("ftl.busy_frac", ratio(float64(s.busyNS), s.wallNS), "fraction")
	r.logf("ftl spans: %s", s.writes.describe("write"))
	r.logf("ftl spans: %s", s.reads.describe("read"))
}

// counterMetrics reports the FTL, subFTL-core, GC, lifetime and NAND
// counters of a measured phase, summed over shards and normalised by the
// host work the FTLs saw: "per kop" is per thousand host requests.
func counterMetrics(r *report, deltas []ftl.Stats, pageSectors int) {
	var t ftl.Stats
	for _, d := range deltas {
		t = addStats(t, d)
	}
	kops := float64(t.HostWriteReqs+t.HostReadReqs+t.HostTrimReqs) / 1000
	hostBytes := float64(t.HostSectorsWritten * t.SectorBytes)
	hostGiB := hostBytes / gib
	perKop := func(v int64) float64 { return ratio(float64(v), kops) }

	r.set("ftl.rmw_per_kop", perKop(t.RMWOps), "per-kop")
	r.set("ftl.buffer_absorbed_frac", ratio(float64(t.BufferAbsorbed), float64(t.HostWriteReqs)), "fraction")
	r.set("ftl.read_buffer_hit_frac", ratio(float64(t.ReadBufferHits), float64(t.HostReadReqs)), "fraction")

	r.set("core.round_advances_per_kop", perKop(t.RoundAdvances), "per-kop")
	r.set("core.sub_shifts_per_kop", perKop(t.SubShifts), "per-kop")
	r.set("core.evictions_per_kop", perKop(t.Evictions), "per-kop")
	r.set("core.req_waf", t.AvgRequestWAF(), "ratio")

	r.set("gc.pages_copied_per_host_page", ratio(float64(t.GCPagesCopied), float64(t.HostSectorsWritten)/float64(pageSectors)), "ratio")
	r.set("gc.steps_per_kop", perKop(t.GCSteps), "per-kop")
	r.set("gc.preemptions_per_kop", perKop(t.GCPreemptions), "per-kop")
	r.set("gc.invocations_per_gib", ratio(float64(t.GCInvocations), hostGiB), "count/GiB")

	r.set("lifetime.wear_units_per_gib", ratio(t.Device.WearUnits, hostGiB), "units/GiB")
	r.set("lifetime.shallow_erase_frac", ratio(float64(t.Device.ShallowErases), float64(t.Device.Erases)), "fraction")
	r.set("lifetime.steered_frac", ratio(float64(t.LifetimeSteered), float64(t.SmallWriteReqs)), "fraction")
	r.set("lifetime.segregated_per_kop", perKop(t.LifetimeSegregated), "per-kop")

	r.set("nand.page_programs_per_kop", perKop(t.Device.PagePrograms), "per-kop")
	r.set("nand.sub_programs_per_kop", perKop(t.Device.SubPrograms), "per-kop")
	r.set("nand.page_reads_per_kop", perKop(t.Device.PageReads), "per-kop")
	r.set("nand.sub_reads_per_kop", perKop(t.Device.SubpageReads), "per-kop")
	r.set("nand.read_bytes_per_host_byte", ratio(float64(t.Device.BytesRead), float64(t.HostSectorsRead*t.SectorBytes)), "ratio")
}

// addStats sums the counters counterMetrics reads. SectorBytes is a size,
// not a counter, and is carried over.
func addStats(a, b ftl.Stats) ftl.Stats {
	a.HostWriteReqs += b.HostWriteReqs
	a.HostReadReqs += b.HostReadReqs
	a.HostTrimReqs += b.HostTrimReqs
	a.HostSectorsWritten += b.HostSectorsWritten
	a.HostSectorsRead += b.HostSectorsRead
	a.SmallWriteReqs += b.SmallWriteReqs
	a.SmallHostBytes += b.SmallHostBytes
	a.SmallFlashBytes += b.SmallFlashBytes
	a.RMWOps += b.RMWOps
	a.BufferAbsorbed += b.BufferAbsorbed
	a.ReadBufferHits += b.ReadBufferHits
	a.RoundAdvances += b.RoundAdvances
	a.SubShifts += b.SubShifts
	a.Evictions += b.Evictions
	a.GCPagesCopied += b.GCPagesCopied
	a.GCSteps += b.GCSteps
	a.GCPreemptions += b.GCPreemptions
	a.GCInvocations += b.GCInvocations
	a.LifetimeSteered += b.LifetimeSteered
	a.LifetimeSegregated += b.LifetimeSegregated
	a.Device.WearUnits += b.Device.WearUnits
	a.Device.ShallowErases += b.Device.ShallowErases
	a.Device.Erases += b.Device.Erases
	a.Device.PagePrograms += b.Device.PagePrograms
	a.Device.SubPrograms += b.Device.SubPrograms
	a.Device.PageReads += b.Device.PageReads
	a.Device.SubpageReads += b.Device.SubpageReads
	a.Device.BytesRead += b.Device.BytesRead
	a.Device.BytesWritten += b.Device.BytesWritten
	a.SectorBytes = b.SectorBytes
	return a
}
