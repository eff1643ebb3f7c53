package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"espftl/internal/core"
	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/host"
	"espftl/internal/lifetime"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// serveSpec describes one served workload: the fleet espserved would run
// and the traffic its clients send.
type serveSpec struct {
	Name      string
	Geometry  nand.Geometry
	Shards    int
	Placement string // namespace placement: "" one shard, "*" page-striped
	Profile   workload.Profile
	// Conns connections each keep Depth commands in flight (closed loop).
	Conns, Depth int
	// Span is the fraction of the namespace the clients address; every
	// shard is preconditioned to the same fraction of its logical space.
	Span float64
	// Warm is the served time before measuring starts: long enough for
	// garbage collection to reach its steady state.
	Warm time.Duration
	// GC and lifetime settings, as experiment.RunConfig takes them.
	GCStepPages, GCBackgroundSlack int
	ErasePolicy                    string
	Lifetime                       bool
}

// serve4k is one 4-KiB write from socket to NAND and back: one subFTL
// shard on the quick device, one Varmail client at QD 8.
var serve4k = serveSpec{
	Name:     "serve-4k",
	Geometry: experiment.QuickGeometry,
	Shards:   1,
	Profile:  workload.Varmail(),
	Conns:    1, Depth: 8,
	Span: 0.9,
	Warm: time.Second,
}

// serveStriped fans every multi-page command out over two full-size
// shards with incremental GC, AERO erase depth and longevity placement:
// two TPC-C clients at QD 8 each.
var serveStriped = serveSpec{
	Name:      "serve-striped",
	Geometry:  experiment.ExperimentGeometry,
	Shards:    2,
	Placement: "*",
	Profile:   workload.TPCC(),
	Conns:     2, Depth: 8,
	Span:        0.9,
	Warm:        10 * time.Second,
	GCStepPages: 8, GCBackgroundSlack: 8,
	ErasePolicy: "aero",
	Lifetime:    true,
}

const nsName = "bench"

func (sp serveSpec) runConfig() experiment.RunConfig {
	return experiment.RunConfig{
		Kind:              experiment.KindSub,
		Geometry:          sp.Geometry,
		GCStepPages:       sp.GCStepPages,
		GCBackgroundSlack: sp.GCBackgroundSlack,
		ErasePolicy:       sp.ErasePolicy,
		Lifetime:          sp.Lifetime,
	}
}

// freshSubFTL constructs, on an existing device, the subFTL experiment.Build
// constructs for cfg: what espserved builds at start-up before its mount
// scan.
func freshSubFTL(dev *nand.Device, logical int64, cfg experiment.RunConfig) (ftl.FTL, error) {
	sc := core.DefaultConfig(logical)
	sc.GCReserveBlocks = dev.Geometry().Chips() + 4
	sc.GC = gc.Options{Policy: cfg.GCPolicy, StepPages: cfg.GCStepPages, BackgroundSlack: cfg.GCBackgroundSlack}
	if cfg.ErasePolicy != "" {
		pol, err := lifetime.NewErasePolicy(cfg.ErasePolicy, *dev.Retention())
		if err != nil {
			return nil, err
		}
		sc.ErasePolicy = pol
	}
	sc.Lifetime = cfg.Lifetime
	return core.New(dev, sc)
}

// serveRun sets how one served run is measured.
type serveRun struct {
	seed          uint64
	warm, measure time.Duration
	windows       int // equal slices of the measured phase
	// repeat makes several set-ups and remounts and reports their
	// medians; otherwise each is made once.
	repeat bool
	traced bool
	// wrap, when set, wraps each shard's FTL before it is served; the
	// self-tests plant faults through it.
	wrap func(ftl.FTL) ftl.FTL
	// edit, when set, may replace the n-th request of connection c.
	edit func(c, n int, r workload.Request) workload.Request
}

// session is one served fleet with its attached connections.
type session struct {
	stacks []server.ShardStack
	spans  []*spanFTL
	srv    *server.Server
	conns  []*benchConn
	closed bool
}

func (sp serveSpec) open(run *serveRun) (*session, error) {
	s := &session{}
	for i := 0; i < sp.Shards; i++ {
		dev, f, logical, err := experiment.Build(sp.runConfig())
		if err != nil {
			return nil, err
		}
		if run.wrap != nil {
			f = run.wrap(f)
		}
		if run.traced {
			w := newSpanFTL(f)
			s.spans = append(s.spans, w)
			f = w
		}
		s.stacks = append(s.stacks, server.ShardStack{Device: dev, FTL: f, LogicalSectors: logical})
	}
	srv, err := server.New(server.Config{
		Stacks:           s.stacks,
		Namespaces:       []server.NamespaceSpec{{Name: nsName, Placement: sp.Placement}},
		PreconditionFrac: sp.Span,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Serve(); err != nil {
		return nil, err
	}
	s.srv = srv
	for c := 0; c < sp.Conns; c++ {
		bc, err := dialBench(srv.Addr(), nsName)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, bc)
	}
	return s, nil
}

// close hangs up and drains the server, returning its engine report.
func (s *session) close() (*host.Report, error) {
	if s.closed {
		return nil, nil
	}
	s.closed = true
	for _, c := range s.conns {
		c.c.Close()
	}
	return s.srv.Shutdown()
}

// serveOutcome is what one served run measured.
type serveOutcome struct {
	setup, remount *repeated
	heapMiB        float64
	pageSectors    int
	rawBytes       int64

	window time.Duration
	served time.Duration // wall time of the whole served phase
	// windows are the measured phase's slices, merged over connections;
	// read and write hold every measured latency, sorted.
	windows     []window
	completed   int64
	read, write latencies
	attempted   int64
	failed      int64
	problems    []string

	// deltas are the per-shard FTL and device counters of the served
	// phase; chipBusy, chips and virt its device time.
	deltas   []ftl.Stats
	chipBusy sim.Duration
	virt     sim.Duration
	chips    int

	// Traced runs only.
	spans        []*spanFTL
	hostRep      *host.Report
	inflightMean float64
	rttNS        int64
	cmds         []wire.Cmd
	reps         []wire.Reply
	mounts       []ftl.MountReport
}

func (o *serveOutcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// total sums the per-shard deltas.
func (o *serveOutcome) total() ftl.Stats {
	var t ftl.Stats
	for _, d := range o.deltas {
		t = addStats(t, d)
	}
	return t
}

// deviceTimes reads a device's busy and drain horizon between engine
// commands.
func deviceTimes(g *ftl.Guard, dev *nand.Device) (busy sim.Duration, drain sim.Time) {
	g.Do(func() { busy, drain = dev.TotalChipBusy(), dev.DrainTime() })
	return busy, drain
}

// execute makes the set-ups, serves the traffic, drains, checks every
// shard, and remounts.
func (sp serveSpec) execute(run serveRun) (*serveOutcome, error) {
	setup, err := newRepeated(run.repeat)
	if err != nil {
		return nil, err
	}
	out := &serveOutcome{setup: setup}
	var s *session
	for setup.more() {
		if s != nil {
			if _, err := s.close(); err != nil {
				return nil, err
			}
		}
		if err := setup.time(func() (err error) {
			s, err = sp.open(&run)
			return err
		}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer s.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	wl := s.conns[0].wl
	sectors := int64(wl.Sectors)
	out.pageSectors = int(wl.PageSectors)
	initial := make([]uint32, sectors)
	for lsn := range initial {
		v, err := s.srv.NamespaceVersion(nsName, int64(lsn))
		if err != nil {
			return nil, err
		}
		if v > 1 {
			out.problem("sector %d holds version %d before any traffic (preconditioning writes each sector once)", lsn, v)
		}
		initial[lsn] = v
	}
	before := make([]ftl.Stats, len(s.stacks))
	drain0 := make([]sim.Time, len(s.stacks))
	for i, st := range s.stacks {
		g := s.srv.ShardFTL(i)
		before[i] = g.Stats()
		var busy sim.Duration
		busy, drain0[i] = deviceTimes(g, st.Device)
		out.chipBusy -= busy
		out.chips += st.Device.Geometry().Chips()
		out.rawBytes += st.Device.Geometry().TotalSubpages() * int64(st.Device.Geometry().SubpageBytes)
	}

	span := int64(float64(sectors)*sp.Span) / int64(wl.PageSectors) * int64(wl.PageSectors)
	start := time.Now()
	warmEnd := start.Add(run.warm)
	deadline := warmEnd.Add(run.measure)
	results := make([]*connResult, len(s.conns))
	nexts := make([]func() workload.Request, len(s.conns))
	for c := range s.conns {
		gen, err := workload.NewSynthetic(sp.Profile, span, int(wl.PageSectors), run.seed*16+uint64(c))
		if err != nil {
			return nil, err
		}
		n := 0
		nexts[c] = func() workload.Request {
			r := gen.Next()
			if run.edit != nil {
				r = run.edit(c, n, r)
			}
			n++
			return r
		}
		results[c] = &connResult{acked: make([]uint32, sectors), windows: make([]window, run.windows)}
	}
	var stopSampling chan struct{}
	var inflight <-chan float64
	if run.traced {
		stopSampling = make(chan struct{})
		inflight = sampleInflight(s.srv, stopSampling)
	}
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for c, bc := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = bc.closedLoop(nexts[c], sp.Depth, warmEnd, deadline, run.traced, results[c])
		}()
	}
	wg.Wait()
	out.served = time.Since(start)
	if run.traced {
		close(stopSampling)
		out.inflightMean = <-inflight
	}
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("connection %d: %w", c, err)
		}
	}
	out.window = run.measure
	hostRep, err := s.close()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	out.hostRep, out.spans = hostRep, s.spans
	for i, st := range s.stacks {
		g := s.srv.ShardFTL(i)
		out.deltas = append(out.deltas, g.Stats().Sub(before[i]))
		busy, drain := deviceTimes(g, st.Device)
		out.chipBusy += busy
		if v := drain.Sub(drain0[i]); v > out.virt {
			out.virt = v
		}
		if err := g.Check(); err != nil {
			out.problem("shard %d FTL check after drain: %v", i, err)
		}
	}

	remounted, err := sp.remount(s.stacks, run.repeat, out)
	if err != nil {
		return nil, err
	}

	out.windows = make([]window, run.windows)
	for _, r := range results {
		for i, w := range r.windows {
			m := &out.windows[i]
			m.read = append(m.read, w.read...)
			m.write = append(m.write, w.write...)
			m.completed += w.completed
			out.read = append(out.read, w.read...)
			out.write = append(out.write, w.write...)
			out.completed += w.completed
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.rttNS += r.rttNS
		out.cmds = append(out.cmds, r.cmds...)
		out.reps = append(out.reps, r.reps...)
		if r.firstErr != "" {
			out.problem("a command failed: %s", r.firstErr)
		}
	}
	out.read, out.write = out.read.sorted(), out.write.sorted()
	for i := range out.windows {
		w := &out.windows[i]
		w.read, w.write = w.read.sorted(), w.write.sorted()
	}

	if err := out.checkVersions(remounted, initial, results); err != nil {
		return nil, err
	}
	return out, nil
}

// checkVersions compares every namespace sector's version on the
// remounted server with the version before traffic plus the writes the
// connections saw acknowledged.
func (o *serveOutcome) checkVersions(srv *server.Server, initial []uint32, results []*connResult) error {
	mismatches, first := 0, ""
	for lsn := range initial {
		want := initial[lsn]
		for _, r := range results {
			want += r.acked[lsn]
		}
		got, err := srv.NamespaceVersion(nsName, int64(lsn))
		if err != nil {
			return err
		}
		if got != want {
			if mismatches == 0 {
				first = fmt.Sprintf("sector %d: version %d after remount, %d expected from the acknowledged writes", lsn, got, want)
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		o.problem("%d sectors differ after remount; first: %s", mismatches, first)
	}
	return nil
}

// sampleInflight averages Server.Inflight, sampled every 200 µs, until stop
// closes; the mean arrives on the returned channel.
func sampleInflight(srv *server.Server, stop <-chan struct{}) <-chan float64 {
	mean := make(chan float64, 1)
	go func() {
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		var sum, n float64
		for {
			select {
			case <-stop:
				mean <- ratio(sum, n)
				return
			case <-tick.C:
				sum += float64(srv.Inflight())
				n++
			}
		}
	}()
	return mean
}

// remount mounts every shard's drained device again through a fresh FTL,
// the way espserved starts up on an existing device, and returns the last
// remounted server (built, not served) for the version check.
func (sp serveSpec) remount(stacks []server.ShardStack, repeat bool, out *serveOutcome) (*server.Server, error) {
	rep, err := newRepeated(repeat)
	if err != nil {
		return nil, err
	}
	out.remount = rep
	var srv *server.Server
	for rep.more() {
		spans := make([]*spanFTL, len(stacks))
		err := rep.time(func() error {
			fresh := make([]server.ShardStack, len(stacks))
			for i, st := range stacks {
				f, err := freshSubFTL(st.Device, st.LogicalSectors, sp.runConfig())
				if err != nil {
					return err
				}
				spans[i] = newSpanFTL(f)
				fresh[i] = server.ShardStack{Device: st.Device, FTL: spans[i], LogicalSectors: st.LogicalSectors}
			}
			var err error
			srv, err = server.New(server.Config{
				Stacks:     fresh,
				Namespaces: []server.NamespaceSpec{{Name: nsName, Placement: sp.Placement}},
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("remount: %w", err)
		}
		out.mounts = out.mounts[:0]
		for _, w := range spans {
			out.mounts = append(out.mounts, w.mount)
		}
	}
	return srv, nil
}

// runServe runs a served workload and reports its end-to-end metrics, or
// with -trace 1 its per-layer metrics.
func runServe(sp serveSpec, o options, r *report) error {
	measure := time.Duration(o.seconds * float64(time.Second))
	run := serveRun{seed: o.seed, warm: sp.Warm, measure: measure, windows: windowsOf(measure), repeat: true}
	if !o.trace {
		out, err := sp.execute(run)
		if err != nil {
			return err
		}
		out.endToEnd(sp, r)
		r.finish(false)
		return nil
	}
	// The traced run measures an untraced half first, as the reference
	// its overhead is reported against.
	run.measure, run.windows, run.repeat = measure/2, windowsOf(measure/2), false
	plain, err := sp.execute(run)
	if err != nil {
		return err
	}
	run.traced = true
	traced, err := sp.execute(run)
	if err != nil {
		return err
	}
	plain.checks(r)
	traced.endToEnd(sp, r)
	plainOps, tracedOps := plain.opsPerSec(), traced.opsPerSec()
	r.logf("trace overhead: %.0f ops/s untraced, %.0f ops/s traced", plainOps, tracedOps)
	r.set("trace.ops_overhead_pct", (1-ratio(tracedOps, plainOps))*100, "%")
	traced.perLayer(r)
	r.finish(true)
	return nil
}

// checks adds the run's commands and check results to the report.
func (o *serveOutcome) checks(r *report) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	for _, p := range o.problems {
		r.fail("%s", p)
	}
	if o.failed > 0 {
		r.fail("%d of %d commands failed or were refused", o.failed, o.attempted)
	}
}

// endToEnd reports the run's end-to-end metrics and check results.
func (o *serveOutcome) endToEnd(sp serveSpec, r *report) {
	o.checks(r)
	t := o.total()
	hostBytes := float64(t.HostSectorsWritten * t.SectorBytes)
	r.set("ops_per_s", o.opsPerSec(), "ops/s")
	r.set("read_p50_us", o.windowMedian(func(w window) float64 { return us(w.read.pct(50)) }), "us")
	r.set("read_p90_us", o.windowMedian(func(w window) float64 { return us(w.read.pct(90)) }), "us")
	r.set("write_p50_us", o.windowMedian(func(w window) float64 { return us(w.write.pct(50)) }), "us")
	r.set("write_p90_us", o.windowMedian(func(w window) float64 { return us(w.write.pct(90)) }), "us")
	r.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)), "fraction")
	r.set("setup_s", o.setup.value(), "s")
	r.set("remount_s", o.remount.value(), "s")
	r.set("waf", t.OverallWAF(), "ratio")
	r.set("erases_per_gib", ratio(float64(t.Device.Erases), hostBytes/gib), "erases/GiB")
	r.set("heap_mib", o.heapMiB, "MiB")
	r.set("sub_req_waf", t.AvgRequestWAF(), "ratio")

	r.logf("%s: %d shard(s), %d connection(s) at QD %d, %s profile over %.0f%% of the namespace, seed-driven",
		sp.Name, sp.Shards, sp.Conns, sp.Depth, sp.Profile.Name, sp.Span*100)
	r.logf("measured %v in %d windows after a %v warm-up: %d commands completed, %d attempted in all, %d failed",
		o.window, len(o.windows), sp.Warm, o.completed, o.attempted, o.failed)
	r.logf("ops_per_s and the latency percentiles are medians over the %v windows; the lines below pool every window", windowLen)
	var perSecond []float64
	for i := 0; i+int(time.Second/windowLen) <= len(o.windows); i += int(time.Second / windowLen) {
		var n int64
		for _, w := range o.windows[i : i+int(time.Second/windowLen)] {
			n += w.completed
		}
		perSecond = append(perSecond, float64(n))
	}
	r.logf("ops per second of the measured phase: %.0f", perSecond)
	r.logf("round trip (wall, exact): %s", o.read.describe("read"))
	r.logf("round trip (wall, exact): %s", o.write.describe("write"))
	r.logRepeats(o.setup, o.remount)
}

// windowMedian returns the median over the measured windows of f.
func (o *serveOutcome) windowMedian(f func(w window) float64) float64 {
	vs := make([]float64, len(o.windows))
	for i, w := range o.windows {
		vs[i] = f(w)
	}
	return median(vs)
}

// opsPerSec is the median over the measured windows of the commands
// completed per second.
func (o *serveOutcome) opsPerSec() float64 {
	slice := o.window.Seconds() / float64(len(o.windows))
	return o.windowMedian(func(w window) float64 { return float64(w.completed) / slice })
}

// windowLen is the length of one measured window. Bursts of interference
// from other load on the machine last a few hundred milliseconds; windows
// this short leave most of them out of the median window, and still hold
// more than a thousand commands each on every served workload, so a
// window's p99 has over ten samples beyond it.
const windowLen = 100 * time.Millisecond

// windowsOf slices a measured phase into windows of windowLen.
func windowsOf(measure time.Duration) int {
	if n := int(measure / windowLen); n > 1 {
		return n
	}
	return 1
}

// perLayer reports the traced run's per-layer metrics.
func (o *serveOutcome) perLayer(r *report) {
	r.set("client.read_p99_us", o.windowMedian(func(w window) float64 { return us(w.read.pct(99)) }), "us")
	r.set("client.write_p99_us", o.windowMedian(func(w window) float64 { return us(w.write.pct(99)) }), "us")
	cmdNS, replyNS, bpo, err := wireCost(o.cmds, o.reps)
	if err != nil {
		r.fail("wire codec replay: %v", err)
	}
	r.set("wire.cmd_ns", cmdNS, "ns")
	r.set("wire.reply_ns", replyNS, "ns")
	r.set("wire.bytes_per_op", bpo, "bytes")

	var submits, busy int64
	var writes, reads latencies
	var flushNS, flushes, tickNS, ticks int64
	for _, w := range o.spans {
		submits += w.submits
		busy += w.busyNS
		writes = append(writes, w.writeNS...)
		reads = append(reads, w.readNS...)
		flushNS += w.flushNS
		flushes += w.flushes
		tickNS += w.tickNS
		ticks += w.ticks
	}
	submitNS := busy - tickNS
	cmds := float64(o.attempted)
	r.set("server.frags_per_cmd", ratio(float64(submits), cmds), "ratio")
	r.set("server.inflight_mean", o.inflightMean, "count")
	r.set("server.refused_frac", ratio(float64(o.failed), cmds), "fraction")
	r.set("server.non_ftl_us", (ratio(float64(o.rttNS), cmds)-ratio(float64(submitNS), cmds))/1e3, "us")

	if h := o.hostRep; h != nil {
		wait := metrics.NewHistogram()
		wait.Merge(h.ReadWait)
		wait.Merge(h.WriteWait)
		r.set("host.virt_wait_p99_us", float64(wait.Percentile(0.99).Nanoseconds())/1e3, "us")
		r.set("host.background_per_kop", ratio(float64(h.Background), float64(h.Completed))*1000, "per-kop")
		r.set("host.out_of_order_frac", ratio(float64(h.OutOfOrder), float64(h.Completed)), "fraction")
	}

	writes, reads = writes.sorted(), reads.sorted()
	ftlSpans{writes: writes, reads: reads, tickNS: tickNS, ticks: ticks, flushNS: flushNS, flushes: flushes,
		busyNS: busy, wallNS: float64(o.served.Nanoseconds()) * float64(len(o.spans))}.report(r)
	counterMetrics(r, o.deltas, o.pageSectors)

	r.set("sim.chip_util_mean", ratio(float64(o.chipBusy), float64(o.chips)*float64(o.virt)), "fraction")
	r.set("sim.virt_iops", ratio(cmds, o.virt.Seconds()), "ops/s")
	mountMetrics(r, o.mounts, o.remount.value(), o.rawBytes)
}

// mountMetrics reports the remount's scan size and cost.
func mountMetrics(r *report, mounts []ftl.MountReport, remountS float64, rawBytes int64) {
	var pages int64
	for _, m := range mounts {
		pages += m.PagesScanned
	}
	r.set("mount.pages_scanned", float64(pages), "count")
	r.set("mount.us_per_mib", ratio(remountS*1e6, float64(rawBytes)/(1<<20)), "us/MiB")
}
