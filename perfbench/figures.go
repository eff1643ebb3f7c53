package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// figuresSeed is the figure suite's fixed seed (espbench's default), so
// its tables are the same on every run.
const figuresSeed = 1

// replaySegment is how many replayed requests run pinned to one CPU
// before the replay moves to the next.
const replaySegment = 10000

// replayRequests is the length of the in-process Varmail replay that
// gives sim-figures its per-request numbers.
const replayRequests = 200000

// experimentIDs are the figure suite's experiment ids, in suite order.
var experimentIDs = func() []string {
	var ids []string
	for _, e := range experiment.All() {
		ids = append(ids, e.ID)
	}
	return ids
}()

// suitePass is one pass of the figure suite.
type suitePass struct {
	workers int
	wall    time.Duration
	each    []time.Duration // per experiment, in suite order
	ok      int
	errs    []string
	digest  string  // SHA-256 of every rendered table
	gainPct float64 // fig8a mean subFTL-over-fgmFTL IOPS gain
	reqWAF  float64 // table1 mean subFTL request WAF
}

// runSuite regenerates every figure and table at quick options on the
// given number of workers.
func runSuite(workers int) (*suitePass, error) {
	experiment.SetWorkers(workers)
	defer experiment.SetWorkers(0)
	p := &suitePass{workers: workers}
	h := sha256.New()
	start := time.Now()
	for _, e := range experiment.All() {
		t0 := time.Now()
		t, err := e.Fn(experiment.Options{Seed: figuresSeed})
		p.each = append(p.each, time.Since(t0))
		if err != nil {
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", e.ID, err))
			continue
		}
		p.ok++
		h.Write([]byte(t.String()))
		var perr error
		switch e.ID {
		case "fig8a":
			p.gainPct, perr = meanCells(t, func(row []string) []string { return row[len(row)-1:] }, "%")
		case "table1":
			p.reqWAF, perr = meanCells(t, func(row []string) []string {
				if row[0] == "average request WAF" {
					return row[1:]
				}
				return nil
			}, "")
		}
		if perr != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, perr)
		}
	}
	p.wall = time.Since(start)
	p.digest = fmt.Sprintf("%x", h.Sum(nil))
	return p, nil
}

// meanCells averages the numeric cells pick selects from a table's rows.
func meanCells(t *experiment.Table, pick func([]string) []string, suffix string) (float64, error) {
	var sum float64
	n := 0
	for _, row := range t.Rows {
		for _, c := range pick(row) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(c, suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("cell %q: %w", c, err)
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no cells to average")
	}
	return sum / float64(n), nil
}

// replay is the espsim-style companion of the figure suite: subFTL on the
// quick device, preconditioned as experiment.Run does, driven by one
// seeded Varmail stream through the FTL's own methods with every call
// timed, then remounted through a fresh FTL.
type replay struct {
	setup, remount *repeated
	heapMiB        float64
	wall           time.Duration
	// spans pools every call; byCPU[i] holds the reads and writes
	// replayed while pinned to the i-th allowed CPU.
	spans       ftlSpans
	byCPU       []ftlSpans
	attempted   int64
	failed      int64
	problems    []string
	delta       ftl.Stats
	chipUtil    float64
	virtIOPS    float64
	mounts      []ftl.MountReport
	rawBytes    int64
	pageSectors int
}

func (p *replay) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// runReplay makes the set-ups, replays n requests and remounts.
func runReplay(seed uint64, n int) (*replay, error) {
	cfg := experiment.RunConfig{Kind: experiment.KindSub, Geometry: experiment.QuickGeometry}
	setup, err := newRepeated(true)
	if err != nil {
		return nil, err
	}
	p := &replay{setup: setup, byCPU: make([]ftlSpans, len(setup.cpus))}
	var (
		dev     *nand.Device
		f       ftl.FTL
		logical int64
		fill    int64
	)
	for setup.more() {
		if err := setup.time(func() (err error) {
			if dev, f, logical, err = experiment.Build(cfg); err != nil {
				return err
			}
			if _, err := f.Recover(); err != nil {
				return err
			}
			ps := dev.Geometry().SubpagesPerPage
			fill = int64(float64(logical)*0.89) / int64(ps) * int64(ps)
			if err := experiment.Precondition(f, ps, fill); err != nil {
				return err
			}
			dev.Clock().AdvanceTo(dev.DrainTime())
			return nil
		}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMiB = float64(ms.HeapAlloc) / (1 << 20)

	g := dev.Geometry()
	p.pageSectors = g.SubpagesPerPage
	p.rawBytes = g.TotalSubpages() * int64(g.SubpageBytes)
	gen, err := workload.NewSynthetic(workload.Varmail(), fill, g.SubpagesPerPage, seed)
	if err != nil {
		return nil, err
	}
	want := make([]uint32, logical)
	for lsn := int64(0); lsn < fill; lsn++ {
		want[lsn] = 1
	}
	before := f.Stats()
	busy0, drain0 := dev.TotalChipBusy(), dev.DrainTime()
	var s ftlSpans
	unpin := func() {}
	defer func() { unpin() }()
	var on *ftlSpans
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%replaySegment == 0 {
			unpin()
			k := i / replaySegment % len(setup.cpus)
			if unpin, err = pinTo(setup.cpus[k]); err != nil {
				return nil, err
			}
			on = &p.byCPU[k]
		}
		r := gen.Next()
		t0 := time.Now()
		var err error
		switch r.Op {
		case workload.OpWrite:
			err = f.Write(r.LSN, r.Sectors, r.Sync)
		case workload.OpRead:
			err = f.Read(r.LSN, r.Sectors)
		default:
			err = fmt.Errorf("generator emitted %v", r.Op)
		}
		ns := time.Since(t0).Nanoseconds()
		s.busyNS += ns
		p.attempted++
		if err != nil {
			p.failed++
			p.problem("request %d (%v): %v", i, r, err)
		} else if r.Op == workload.OpWrite {
			for lsn := r.LSN; lsn < r.LSN+int64(r.Sectors); lsn++ {
				want[lsn]++
			}
		}
		if r.Op == workload.OpWrite {
			s.writes = append(s.writes, ns)
			on.writes = append(on.writes, ns)
		} else {
			s.reads = append(s.reads, ns)
			on.reads = append(on.reads, ns)
		}
		if i%64 == 0 {
			t0 := time.Now()
			if err := f.Tick(); err != nil {
				return nil, fmt.Errorf("tick: %w", err)
			}
			ns := time.Since(t0).Nanoseconds()
			s.tickNS += ns
			s.busyNS += ns
			s.ticks++
		}
	}
	t0 := time.Now()
	if err := f.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	s.flushNS, s.flushes = time.Since(t0).Nanoseconds(), 1
	s.busyNS += s.flushNS
	p.wall = time.Since(start)
	s.wallNS = float64(p.wall.Nanoseconds())
	unpin()
	unpin = func() {}
	s.writes, s.reads = s.writes.sorted(), s.reads.sorted()
	p.spans = s
	for i := range p.byCPU {
		c := &p.byCPU[i]
		c.writes, c.reads = c.writes.sorted(), c.reads.sorted()
	}
	p.delta = f.Stats().Sub(before)
	virt := dev.DrainTime().Sub(drain0)
	p.chipUtil = ratio(float64(dev.TotalChipBusy()-busy0), float64(g.Chips())*float64(virt))
	p.virtIOPS = ratio(float64(n), virt.Seconds())
	if err := f.Check(); err != nil {
		p.problem("FTL check after the replay: %v", err)
	}

	if p.remount, err = newRepeated(true); err != nil {
		return nil, err
	}
	var mounted ftl.FTL
	for p.remount.more() {
		var rep ftl.MountReport
		if err := p.remount.time(func() (err error) {
			if mounted, err = freshSubFTL(dev, logical, cfg); err != nil {
				return err
			}
			rep, err = mounted.Recover()
			return err
		}); err != nil {
			return nil, fmt.Errorf("remount: %w", err)
		}
		p.mounts = []ftl.MountReport{rep}
	}
	vp, ok := mounted.(ftl.VersionProber)
	if !ok {
		return nil, fmt.Errorf("%s has no version probe", mounted.Name())
	}
	mismatches, first := 0, ""
	for lsn, w := range want {
		if got := vp.VersionOf(int64(lsn)); got != w {
			if mismatches == 0 {
				first = fmt.Sprintf("sector %d: version %d after remount, %d expected from the completed writes", lsn, got, w)
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		p.problem("%d sectors differ after remount; first: %s", mismatches, first)
	}
	return p, nil
}

// cpuMean is the mean over CPUs, in microseconds, of a latency figure of
// the requests replayed on each CPU.
func (p *replay) cpuMean(f func(ftlSpans) int64) float64 {
	var sum float64
	n := 0
	for _, c := range p.byCPU {
		if len(c.reads)+len(c.writes) > 0 {
			sum += us(f(c))
			n++
		}
	}
	return ratio(sum, float64(n))
}

// runFigures runs the sim-figures workload: the figure suite, repeated
// for the measured seconds, plus its replay companion. A traced run adds
// one pass on one worker, so each experiment's span is its own CPU cost.
func runFigures(o options, r *report) error {
	workers := runtime.NumCPU()
	rp, err := runReplay(o.seed, replayRequests)
	if err != nil {
		return err
	}
	var passes []*suitePass
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(passes) == 0 || time.Now().Before(deadline) {
		p, err := runSuite(workers)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	suiteS := median(walls)
	checked := passes
	var one *suitePass
	if o.trace {
		if one, err = runSuite(1); err != nil {
			return err
		}
		checked = append(checked[:len(checked):len(checked)], one)
	}

	r.logf("sim-figures: the %d-experiment figure suite at quick options, seed %d, on %d workers; replay companion: %d Varmail requests on subFTL, seed %d",
		len(experimentIDs), figuresSeed, workers, replayRequests, o.seed)
	ok := 0
	for i, p := range checked {
		ok += p.ok
		for _, e := range p.errs {
			r.fail("experiment failed: %s", e)
		}
		if p.digest != checked[0].digest {
			r.fail("pass %d rendered tables with digest %s, pass 0 %s", i, p.digest, checked[0].digest)
		}
		r.logf("suite pass %d on %d worker(s): %.3f s, %d/%d experiments ok, tables sha256 %s", i, p.workers, p.wall.Seconds(), p.ok, len(p.each), p.digest)
	}
	r.logf("suite_s %.3f s (median of %d passes); fig8a mean sub/fgm IOPS gain %+.2f%% (paper +35%%); table1 mean request WAF %.4f (paper 1.005)",
		suiteS, len(passes), passes[0].gainPct, passes[0].reqWAF)
	r.Attempted = int64(len(checked)*len(experimentIDs)) + rp.attempted
	r.Failed = r.Attempted - int64(ok) - (rp.attempted - rp.failed)
	for _, pr := range rp.problems {
		r.fail("replay: %s", pr)
	}
	if !o.trace {
		r.set("ops_per_s", float64(len(experimentIDs))/suiteS, "ops/s")
		r.set("read_p50_us", rp.cpuMean(func(c ftlSpans) int64 { return c.reads.pct(50) }), "us")
		r.set("read_p90_us", rp.cpuMean(func(c ftlSpans) int64 { return c.reads.pct(90) }), "us")
		r.set("write_p50_us", rp.cpuMean(func(c ftlSpans) int64 { return c.writes.pct(50) }), "us")
		r.set("write_p90_us", rp.cpuMean(func(c ftlSpans) int64 { return c.writes.pct(90) }), "us")
		r.set("ok_frac", 1-ratio(float64(r.Failed), float64(r.Attempted)), "fraction")
		r.set("setup_s", rp.setup.value(), "s")
		r.set("remount_s", rp.remount.value(), "s")
		hostBytes := float64(rp.delta.HostSectorsWritten * rp.delta.SectorBytes)
		r.set("waf", rp.delta.OverallWAF(), "ratio")
		r.set("erases_per_gib", ratio(float64(rp.delta.Device.Erases), hostBytes/gib), "erases/GiB")
		r.set("heap_mib", rp.heapMiB, "MiB")
		r.set("sub_req_waf", passes[0].reqWAF, "ratio")
		r.logf("replay latency (wall, exact): %s", rp.spans.reads.describe("read"))
		r.logf("replay latency (wall, exact): %s", rp.spans.writes.describe("write"))
		r.logRepeats(rp.setup, rp.remount)
		r.finish(false)
		return nil
	}

	var sum time.Duration
	for i, id := range experimentIDs {
		r.set("experiment."+id+"_s", one.each[i].Seconds(), "s")
		sum += one.each[i]
	}
	r.set("experiment.suite_s", suiteS, "s")
	r.set("experiment.sub_iops_gain_pct", passes[0].gainPct, "%")
	r.set("experiment.pool_eff", sum.Seconds()/(suiteS*float64(workers)), "fraction")
	r.set("client.read_p99_us", us(rp.spans.reads.pct(99)), "us")
	r.set("client.write_p99_us", us(rp.spans.writes.pct(99)), "us")
	rp.spans.report(r)
	counterMetrics(r, []ftl.Stats{rp.delta}, rp.pageSectors)
	r.set("sim.chip_util_mean", rp.chipUtil, "fraction")
	r.set("sim.virt_iops", rp.virtIOPS, "ops/s")
	mountMetrics(r, rp.mounts, rp.remount.value(), rp.rawBytes)
	r.finish(true)
	return nil
}
