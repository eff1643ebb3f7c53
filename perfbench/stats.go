package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run prints, with
// their units, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "ops/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"ok_frac", "fraction"},
	{"setup_s", "s"},
	{"remount_s", "s"},
	{"waf", "ratio"},
	{"erases_per_gib", "erases/GiB"},
	{"heap_mib", "MiB"},
	{"sub_req_waf", "ratio"},
}

// perLayer lists the per-layer metrics every traced run prints, with their
// units, in BENCHMARK.json order. A workload that does not exercise a layer
// reports its metrics as 0.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"client.read_p99_us", "us"},
		{"client.write_p99_us", "us"},
		{"wire.cmd_ns", "ns"},
		{"wire.reply_ns", "ns"},
		{"wire.bytes_per_op", "bytes"},
		{"server.frags_per_cmd", "ratio"},
		{"server.inflight_mean", "count"},
		{"server.refused_frac", "fraction"},
		{"server.non_ftl_us", "us"},
		{"host.virt_wait_p99_us", "us"},
		{"host.background_per_kop", "per-kop"},
		{"host.out_of_order_frac", "fraction"},
		{"ftl.write_p50_ns", "ns"},
		{"ftl.write_p99_ns", "ns"},
		{"ftl.read_p50_ns", "ns"},
		{"ftl.read_p99_ns", "ns"},
		{"ftl.tick_mean_ns", "ns"},
		{"ftl.flush_mean_ns", "ns"},
		{"ftl.busy_frac", "fraction"},
		{"ftl.rmw_per_kop", "per-kop"},
		{"ftl.buffer_absorbed_frac", "fraction"},
		{"ftl.read_buffer_hit_frac", "fraction"},
		{"core.round_advances_per_kop", "per-kop"},
		{"core.sub_shifts_per_kop", "per-kop"},
		{"core.evictions_per_kop", "per-kop"},
		{"core.req_waf", "ratio"},
		{"gc.pages_copied_per_host_page", "ratio"},
		{"gc.steps_per_kop", "per-kop"},
		{"gc.preemptions_per_kop", "per-kop"},
		{"gc.invocations_per_gib", "count/GiB"},
		{"lifetime.wear_units_per_gib", "units/GiB"},
		{"lifetime.shallow_erase_frac", "fraction"},
		{"lifetime.steered_frac", "fraction"},
		{"lifetime.segregated_per_kop", "per-kop"},
		{"nand.page_programs_per_kop", "per-kop"},
		{"nand.sub_programs_per_kop", "per-kop"},
		{"nand.page_reads_per_kop", "per-kop"},
		{"nand.sub_reads_per_kop", "per-kop"},
		{"nand.read_bytes_per_host_byte", "ratio"},
		{"sim.chip_util_mean", "fraction"},
		{"sim.virt_iops", "ops/s"},
		{"mount.pages_scanned", "count"},
		{"mount.us_per_mib", "us/MiB"},
		{"trace.ops_overhead_pct", "%"},
		{"experiment.suite_s", "s"},
		{"experiment.sub_iops_gain_pct", "%"},
		{"experiment.pool_eff", "fraction"},
	}
	for _, id := range experimentIDs {
		out = append(out, struct{ name, unit string }{"experiment." + id + "_s", "s"})
	}
	return out
}()

// finish checks that the run reported exactly the metric set its mode
// promises, filling the per-layer metrics of layers the workload does not
// exercise with 0.
func (r *report) finish(traced bool) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	known := map[string]bool{}
	for _, m := range want {
		known[m.name] = true
		if _, ok := r.Metrics[m.name]; ok {
			continue
		}
		if !traced {
			r.fail("end-to-end metric %s was not measured", m.name)
		}
		r.set(m.name, 0, m.unit)
	}
	for name := range r.Metrics {
		if !known[name] {
			delete(r.Metrics, name)
		}
	}
}

// latencies holds exact per-operation wall latencies in nanoseconds. The
// benchmark keeps every sample rather than a bucketed histogram, so a
// percentile is a measured value, not a bucket edge.
type latencies []int64

// sorted returns the samples in ascending order.
func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100) of sorted
// samples, 0 when there are none.
func (l latencies) pct(p float64) int64 {
	if len(l) == 0 {
		return 0
	}
	// The epsilon keeps decimal percentiles such as 99.9 from rounding
	// up a rank through binary floating point.
	rank := int(math.Ceil(p/100*float64(len(l)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l) {
		rank = len(l)
	}
	return l[rank-1]
}

// ladder is the percentile ladder of the report lines.
var ladder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// describe renders a sorted sample set for the report: its count, the
// ladder percentiles that have at least ten samples beyond them, and the
// highest such percentile.
func (l latencies) describe(name string) string {
	s := fmt.Sprintf("%-6s n=%d", name, len(l))
	deepest := ""
	for _, p := range ladder {
		if float64(len(l))*(1-p/100) < 10 {
			break
		}
		s += fmt.Sprintf(" p%g=%.1fus", p, us(l.pct(p)))
		deepest = fmt.Sprintf("p%g", p)
	}
	if deepest == "" {
		return s + " (fewer than ten samples beyond the median)"
	}
	return s + " (highest percentile with >=10 samples beyond it: " + deepest + ")"
}

// repeated is a measurement repeated several times in one run, each
// sample timed by timeQuiet while pinned to the next allowed CPU in turn.
type repeated struct {
	cpus  []int
	secs  [][]float64 // secs[i] are the samples taken on cpus[i]
	n     int
	first time.Time
	// repeat asks for many samples; otherwise one is taken.
	repeat bool
}

// maxPinned bounds the CPUs a repeated measurement rotates over, so that a
// large machine does not multiply the rounds it takes.
const maxPinned = 8

func newRepeated(repeat bool) (*repeated, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	cpus = cpus[:min(len(cpus), maxPinned)]
	return &repeated{cpus: cpus, secs: make([][]float64, len(cpus)), repeat: repeat}, nil
}

// more reports whether to take another sample: at least eight, then more
// while they fit in four seconds, up to 24, always ending on a whole round
// of the CPUs.
func (r *repeated) more() bool {
	switch {
	case r.n == 0:
		return true
	case !r.repeat:
		return false
	case r.n%len(r.cpus) != 0 || r.n < 8:
		return true
	}
	return r.n < 24 && time.Since(r.first) < 4*time.Second
}

// time takes one sample of f.
func (r *repeated) time(f func() error) error {
	if r.n == 0 {
		r.first = time.Now()
	}
	i := r.n % len(r.cpus)
	unpin, err := pinTo(r.cpus[i])
	if err != nil {
		return err
	}
	defer unpin()
	secs, err := timeQuiet(f)
	if err != nil {
		return err
	}
	r.secs[i] = append(r.secs[i], secs)
	r.n++
	return nil
}

// value is the mean over CPUs of each CPU's median sample.
func (r *repeated) value() float64 {
	var sum float64
	n := 0
	for _, s := range r.secs {
		if len(s) > 0 {
			sum += median(s)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// String lists the samples by CPU.
func (r *repeated) String() string {
	s := fmt.Sprintf("%.4f s", r.value())
	for i, cpu := range r.cpus {
		if len(r.secs[i]) > 0 {
			s += fmt.Sprintf("; CPU %d: median %.4f of %.4f", cpu, median(r.secs[i]), r.secs[i])
		}
	}
	return s
}

// timeQuiet returns the wall time of f in seconds. Before f starts, a full
// collection returns the memory earlier samples freed to the operating
// system, so every sample faults in its memory afresh, as a fresh process
// does, rather than reusing as much of it as the background scavenger
// happened to leave. The collector stays stopped while f runs, so no
// collection cycle of earlier garbage lands inside the sample.
func timeQuiet(f func() error) (float64, error) {
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// median returns the median of the values, 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio divides, returning 0 for a zero denominator (a counter whose base
// never occurred in this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const gib = 1 << 30
