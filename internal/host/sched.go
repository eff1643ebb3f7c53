package host

import (
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Queues is the number of submission-queue lanes (default 1).
	Queues int
	// Arbiter is the dispatch policy over the per-chip command queues
	// (default FIFO).
	Arbiter Arbiter
	// TickEvery admits one background maintenance command (FTL.Tick)
	// after every TickEvery host dispatches; 0 disables maintenance.
	// It mirrors the classic replay's tick cadence, so at queue depth 1
	// the FTL sees the identical call sequence.
	TickEvery int
	// BackgroundDeferLimit bounds how many events a background command
	// may yield to pending host reads before it is dispatched anyway
	// (default 512). Scrubbing must eventually run even under read load.
	BackgroundDeferLimit int
	// ExtBatch is the external-mode admission batch: after a blocking
	// submission receive, RunExternal greedily drains up to ExtBatch-1
	// further queued submissions before the next dispatch round, so a
	// burst is arbitrated as one batch. The default (1) admits one
	// submission per wake — the legacy behaviour, and the only
	// deterministic one when producers race the event loop, so batching
	// is strictly opt-in (the network service opts in; single-threaded
	// replay tests must not).
	ExtBatch int
}

func (c Config) withDefaults() (Config, error) {
	if c.Queues == 0 {
		c.Queues = 1
	}
	if c.Queues < 0 {
		return c, fmt.Errorf("host: %d submission queues", c.Queues)
	}
	if c.Arbiter == nil {
		c.Arbiter = FIFO{}
	}
	if c.TickEvery < 0 {
		return c, fmt.Errorf("host: negative tick cadence %d", c.TickEvery)
	}
	if c.BackgroundDeferLimit == 0 {
		c.BackgroundDeferLimit = 512
	}
	if c.ExtBatch == 0 {
		c.ExtBatch = 1
	}
	if c.ExtBatch < 0 {
		return c, fmt.Errorf("host: negative external batch %d", c.ExtBatch)
	}
	return c, nil
}

// event is one entry of the central event loop: a command completion or
// an open-loop arrival.
type event struct {
	at     sim.Time
	ord    int64    // deterministic tie-break: push order
	cmd    *Command // nil for arrival events
	arrive int64    // arrival index when cmd is nil
}

// eventHeap is a min-heap on (at, ord). It deliberately does not
// implement container/heap: heap.Push and heap.Pop box every event
// through interface{}, which is an allocation per scheduled completion —
// the concrete push/pop below keep the event loop allocation-free.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Scheduler is the event-driven host interface over one device and FTL.
// A Scheduler runs one workload (RunClosedLoop or RunOpenLoop) and is
// then spent; build a new one per run. It is not safe for concurrent
// use — like the rest of the simulator it is single-threaded so that
// runs are exactly reproducible.
type Scheduler struct {
	cfg   Config
	dev   *nand.Device
	clock *sim.Clock
	f     ftl.FTL
	sub   ftl.Submitter
	probe ftl.ChipProbe

	now    sim.Time
	seq    int64
	evOrd  int64
	events eventHeap

	chips    int
	chipBusy []bool
	bg       *Command // at most one pending background command

	// pending holds the undispatched host commands in submission order.
	// The per-chip command queues are derived from it: a command heads
	// its chip queue (index chips = unrouted) exactly when no older
	// pending command routes to the same chip. heads/headIdx are the
	// reusable output of collectHeads, and seen/seenGen its per-queue
	// visit stamps (a generation counter, so no per-round clearing).
	pending []*Command
	heads   []*Command
	headIdx []int
	seen    []uint64
	seenGen uint64
	// canDispatch is dispatchable bound once: a method value allocates
	// each time it is taken, and the arbiter needs one every round.
	canDispatch func(*Command) bool

	outstanding  []*Command // submitted, incomplete host commands
	pendingReads int        // undispatched host reads
	inflight     int        // dispatched, incomplete host commands

	hostDispatched int64
	wrRR           int
	scratchA       []sim.Time
	scratchB       []sim.Time
	busy0          sim.Duration
	drain0         sim.Time

	rep        *Report
	ran        bool
	external   bool // RunExternal: per-command error delivery, byte attribution
	onDispatch func(*Command)

	// cmdFree recycles Command records for submitters that opted into
	// recycling (ExtSubmission.Complete) and for background ticks; see
	// freeCmd for the retention rules.
	cmdFree []*Command
	// issueErr and issueCB are the reusable Submit callback: allocating a
	// fresh closure per dispatch would put one heap object on every
	// command's hot path.
	issueErr error
	issueCB  ftl.CompletionFunc
}

// SetDispatchHook installs a callback observing every command at the
// moment it is issued to the FTL, in dispatch order. Tests use it to
// assert ordering properties (e.g. that the barrier kept a read behind
// an earlier overlapping write); it must not mutate the command.
func (s *Scheduler) SetDispatchHook(fn func(*Command)) { s.onDispatch = fn }

// New builds a scheduler over the device's clock. The FTL's non-blocking
// Submit path is used when it implements ftl.Submitter, and reads are
// routed to per-chip queues when it implements ftl.ChipProbe; both are
// optional.
func New(dev *nand.Device, f ftl.FTL, cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:   cfg,
		dev:   dev,
		clock: dev.Clock(),
		f:     f,
		chips: dev.Geometry().Chips(),
	}
	s.sub, _ = f.(ftl.Submitter)
	s.probe, _ = f.(ftl.ChipProbe)
	s.chipBusy = make([]bool, s.chips)
	s.seen = make([]uint64, s.chips+1)
	s.canDispatch = s.dispatchable
	s.now = s.clock.Now()
	s.issueCB = func(e error) { s.issueErr = e }
	return s, nil
}

// newCmd takes a zeroed Command from the freelist, or allocates one.
func (s *Scheduler) newCmd() *Command {
	if n := len(s.cmdFree); n > 0 {
		c := s.cmdFree[n-1]
		s.cmdFree = s.cmdFree[:n-1]
		*c = Command{}
		return c
	}
	return &Command{}
}

// freeCmd returns a command to the freelist. Recycling is strictly
// opt-in: only commands whose submitter used the Completion interface
// (which promises not to retain the pointer) and internally generated
// background ticks come back here — commands delivered through the
// legacy ExtSubmission.Done func, or run by the closed/open-loop
// drivers, stay live because callers historically retain them.
func (s *Scheduler) freeCmd(c *Command) { s.cmdFree = append(s.cmdFree, c) }

// RunClosedLoop drives n generated requests at a fixed queue depth: depth
// requests are outstanding at all times (until the stream drains), and
// every completion immediately submits the next request. At depth 1 with
// the FIFO arbiter this is exactly the classic serial replay.
func (s *Scheduler) RunClosedLoop(gen workload.Generator, n, depth int) (*Report, error) {
	if depth < 1 {
		return nil, fmt.Errorf("host: queue depth %d (want >= 1)", depth)
	}
	if err := s.start(depth); err != nil {
		return nil, err
	}
	submitted := 0
	for submitted < depth && submitted < n {
		if err := s.submit(gen.Next()); err != nil {
			return s.rep, err
		}
		submitted++
	}
	err := s.loop(func() error {
		if submitted >= n {
			return nil
		}
		submitted++
		return s.submit(gen.Next())
	}, nil)
	return s.finish(err)
}

// RunOpenLoop drives n generated requests at a fixed arrival rate
// (requests per second of virtual time), the offered-load operating
// point: arrivals do not wait for completions, so an overloaded device
// shows unbounded queueing delay instead of silently throttling the
// workload. The shared clock advances with the arrival process.
func (s *Scheduler) RunOpenLoop(gen workload.Generator, n int, rate float64) (*Report, error) {
	interarrival, err := arrivalInterval(rate)
	if err != nil {
		return nil, err
	}
	if err := s.start(0); err != nil {
		return nil, err
	}
	start := s.now
	if n > 0 {
		s.pushArrival(start, 0)
	}
	err = s.loop(nil, func(idx int64, at sim.Time) error {
		s.clock.AdvanceTo(at)
		if err := s.submit(gen.Next()); err != nil {
			return err
		}
		if idx+1 < int64(n) {
			s.pushArrival(start.Add(sim.Duration(idx+1)*interarrival), idx+1)
		}
		return nil
	})
	return s.finish(err)
}

// arrivalInterval validates an open-loop rate and converts it to the
// interarrival gap. Rates must be positive and finite.
func arrivalInterval(rate float64) (sim.Duration, error) {
	if !(rate > 0) || rate > 1e12 {
		return 0, fmt.Errorf("host: open-loop arrival rate %v (want 0 < rate <= 1e12 req/s)", rate)
	}
	d := sim.Duration(float64(sim.Second) / rate)
	if d <= 0 {
		d = 1
	}
	return d, nil
}

func (s *Scheduler) start(depth int) error {
	if s.ran {
		return fmt.Errorf("host: scheduler already ran; build a new one per run")
	}
	s.ran = true
	s.rep = newReport(s.cfg.Arbiter.Name(), depth, s.cfg.Queues)
	s.scratchA = s.dev.ResourceFreeTimes(nil)
	s.scratchB = s.dev.ResourceFreeTimes(nil)
	s.busy0 = s.dev.TotalChipBusy()
	s.drain0 = s.dev.DrainTime()
	return nil
}

func (s *Scheduler) finish(err error) (*Report, error) {
	s.sampleSeries()
	return s.rep, err
}

// loop is the central event loop. onHostComplete (closed loop) runs after
// every host completion; onArrive (open loop) runs for each arrival event.
func (s *Scheduler) loop(onHostComplete func() error, onArrive func(idx int64, at sim.Time) error) error {
	for {
		if err := s.dispatchRound(); err != nil {
			return err
		}
		if len(s.events) == 0 {
			if len(s.pending) > 0 || s.bg != nil {
				return fmt.Errorf("host: scheduler stalled with %d pending commands and no events", len(s.pending))
			}
			return nil
		}
		ev := s.events.pop()
		if ev.at > s.now {
			s.now = ev.at
		}
		if ev.cmd != nil {
			host := ev.cmd.Class != ClassBackground
			s.complete(ev.cmd)
			if host && onHostComplete != nil {
				if err := onHostComplete(); err != nil {
					return err
				}
			}
		} else if onArrive != nil {
			if err := onArrive(ev.arrive, ev.at); err != nil {
				return err
			}
		}
		s.sampleSeries()
	}
}

func (s *Scheduler) pushArrival(at sim.Time, idx int64) {
	s.events.push(event{at: at, ord: s.evOrd, arrive: idx})
	s.evOrd++
}

// submit accepts one host request: it is sequenced, classified, tagged
// with its submission-queue lane, routed to a per-chip command queue, and
// appended to the pending list.
func (s *Scheduler) submit(r workload.Request) error {
	_, err := s.submitCmd(r)
	return err
}

// submitCmd is submit exposed for the external path, which needs the
// command back to attach its completion callback.
func (s *Scheduler) submitCmd(r workload.Request) (*Command, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.Op == workload.OpAdvance {
		return nil, fmt.Errorf("host: OpAdvance cannot be scheduled; advance the clock between runs")
	}
	c := s.newCmd()
	c.Seq = s.seq
	c.Queue = int(s.seq % int64(s.cfg.Queues))
	c.Req = r
	c.Arrival = s.now
	c.DispatchIdx = -1
	s.seq++
	if r.Op == workload.OpRead {
		c.Class = ClassRead
		s.pendingReads++
	} else {
		c.Class = ClassWrite
	}
	c.Chip = s.route(c)
	s.pending = append(s.pending, c)
	s.outstanding = append(s.outstanding, c)
	s.rep.Submitted++
	s.rep.PerQueue[c.Queue]++
	return c, nil
}

// route picks the command queue: reads go to the chip currently holding
// their first sector (per the FTL's mapping probe), writes round-robin
// across chips as a stand-in for the FTLs' striped allocation, and
// everything unresolvable goes to the unrouted queue. Flushes are
// unrouted: they fan out across every chip holding buffered data, so no
// single chip queue owns them — the ordering barrier sequences them.
func (s *Scheduler) route(c *Command) int {
	if c.Req.Op == workload.OpFlush {
		return s.chips
	}
	if c.Class == ClassRead {
		if s.probe != nil {
			if ch := s.probe.ChipOf(c.Req.LSN); ch >= 0 && ch < s.chips {
				return ch
			}
		}
		return s.chips
	}
	ch := s.wrRR % s.chips
	s.wrRR++
	return ch
}

// conflicts reports a data hazard between two host commands: overlapping
// sector ranges where at least one side mutates (write or trim). A flush
// is a full barrier both ways — it must observe every earlier write and
// later writes must not be reordered ahead of the durability point it
// acknowledges.
func conflicts(a, b *Command) bool {
	if a.Class == ClassRead && b.Class == ClassRead {
		return false
	}
	if a.Req.Op == workload.OpFlush || b.Req.Op == workload.OpFlush {
		return true
	}
	aEnd := a.Req.LSN + int64(a.Req.Sectors)
	bEnd := b.Req.LSN + int64(b.Req.Sectors)
	return a.Req.LSN < bEnd && b.Req.LSN < aEnd
}

// dispatchable applies the scheduler's structural constraints to a
// command-queue head: its chip must be idle and no earlier-submitted
// undispatched command may conflict with it (the ordering barrier).
func (s *Scheduler) dispatchable(c *Command) bool {
	if c.Chip < s.chips && s.chipBusy[c.Chip] {
		return false
	}
	for _, o := range s.pending {
		if o.Seq >= c.Seq {
			break // pending is seq-ordered
		}
		if conflicts(o, c) {
			return false
		}
	}
	return true
}

// collectHeads fills s.heads with the head of every non-empty chip
// queue, in submission order, and s.headIdx with each head's index in
// s.pending. One walk of the pending list: a command is a head when it
// is the first pending command seen for its queue.
func (s *Scheduler) collectHeads() {
	s.seenGen++
	s.heads, s.headIdx = s.heads[:0], s.headIdx[:0]
	for i, c := range s.pending {
		if s.seen[c.Chip] == s.seenGen {
			continue
		}
		s.seen[c.Chip] = s.seenGen
		s.heads = append(s.heads, c)
		s.headIdx = append(s.headIdx, i)
	}
}

// dispatchRound issues every currently dispatchable command: host
// commands first via the arbiter, then at most the pending background
// command if no host work can go and no host read is waiting (or the
// background deferral budget ran out).
func (s *Scheduler) dispatchRound() error {
	for {
		s.collectHeads()
		if i := s.cfg.Arbiter.Pick(s.heads, s.canDispatch); i >= 0 {
			c := s.heads[i]
			// Remove in place so the list keeps its backing array and
			// later appends do not reallocate. The list is short (bounded
			// by the commands in flight), so the copy is cheap.
			p, at := s.pending, s.headIdx[i]
			copy(p[at:], p[at+1:])
			p[len(p)-1] = nil
			s.pending = p[:len(p)-1]
			if err := s.dispatchHost(c); err != nil {
				return err
			}
			continue
		}
		if s.bg != nil {
			if s.pendingReads > 0 && s.bg.deferred < s.cfg.BackgroundDeferLimit {
				s.bg.deferred++
				s.rep.BackgroundDeferred++
				return nil
			}
			c := s.bg
			s.bg = nil
			if err := s.dispatch(c); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// dispatchHost issues one host command and enqueues the maintenance tick
// its cadence position owes, mirroring the classic replay's tick points.
func (s *Scheduler) dispatchHost(c *Command) error {
	if c.Class == ClassRead {
		s.pendingReads--
		if s.olderWritePending(c.Seq) {
			s.rep.ReadsPromoted++
		}
	}
	s.inflight++
	if err := s.dispatch(c); err != nil {
		return err
	}
	i := s.hostDispatched
	s.hostDispatched++
	s.rep.Dispatched++
	if s.cfg.TickEvery > 0 && i%int64(s.cfg.TickEvery) == 0 && s.bg == nil {
		bg := s.newCmd()
		bg.Seq = s.seq
		bg.Class = ClassBackground
		bg.Chip = s.chips
		bg.Arrival = s.now
		bg.DispatchIdx = -1
		s.bg = bg
		s.seq++
	}
	return nil
}

// olderWritePending reports whether an undispatched write or trim with a
// smaller sequence number exists — i.e. dispatching seq now overtakes it.
func (s *Scheduler) olderWritePending(seq int64) bool {
	for _, o := range s.pending {
		if o.Seq >= seq {
			break
		}
		if o.Class == ClassWrite {
			return true
		}
	}
	return false
}

// dispatch issues a command to the FTL and derives its completion time
// from the device's per-resource FreeAt deltas: the command completes
// when the last resource its transaction occupied drains. A command that
// touched no resource (a buffer-absorbed write, a buffered or unmapped
// read) completes instantly.
func (s *Scheduler) dispatch(c *Command) error {
	c.Dispatch = s.now
	c.DispatchIdx = s.hostDispatched + s.rep.Background // total issue order
	if s.onDispatch != nil {
		s.onDispatch(c)
	}
	if c.Chip < s.chips {
		s.chipBusy[c.Chip] = true
	}
	s.scratchA = s.dev.ResourceFreeTimes(s.scratchA)
	var bytes0 int64
	if s.external {
		bytes0 = s.dev.Counters().BytesWritten
	}
	err := s.issue(c)
	if s.external {
		c.FlashBytes = s.dev.Counters().BytesWritten - bytes0
	}
	s.scratchB = s.dev.ResourceFreeTimes(s.scratchB)
	end := sim.Time(0)
	for i := range s.scratchB {
		if s.scratchB[i] != s.scratchA[i] {
			c.Fanout++
			if s.scratchB[i] > end {
				end = s.scratchB[i]
			}
		}
	}
	if end < c.Arrival {
		// The work packed before the arrival axis (an idle resource) or
		// there was none: the command completes upon arrival.
		end = c.Arrival
	}
	c.Complete = end
	if err != nil {
		if !s.external {
			return fmt.Errorf("host: %s command seq %d (%v): %w", c.Class, c.Seq, c.Req, err)
		}
		// External mode: a failed command still completes and carries its
		// error back to the submitter — one tenant's bad request (or a
		// dead device) must not tear down the whole service loop.
		c.Err = err
	}
	s.events.push(event{at: end, ord: s.evOrd, cmd: c})
	s.evOrd++
	if c.Class != ClassBackground {
		wait := c.Dispatch.Sub(c.Arrival)
		if wait < 0 {
			wait = 0
		}
		if c.Class == ClassRead {
			s.rep.ReadWait.Record(wait)
		} else {
			s.rep.WriteWait.Record(wait)
		}
		s.rep.Fanout.Record(c.Fanout)
	} else {
		s.rep.Background++
	}
	return nil
}

// issue performs the FTL call: the non-blocking Submit path when the FTL
// provides one, the synchronous interface otherwise, and Tick for
// background commands.
func (s *Scheduler) issue(c *Command) error {
	if c.Class == ClassBackground {
		return s.f.Tick()
	}
	if s.sub != nil {
		s.issueErr = nil
		s.sub.Submit(c.Req, s.issueCB)
		return s.issueErr
	}
	r := c.Req
	switch r.Op {
	case workload.OpWrite:
		return s.f.Write(r.LSN, r.Sectors, r.Sync)
	case workload.OpRead:
		return s.f.Read(r.LSN, r.Sectors)
	case workload.OpTrim:
		return s.f.Trim(r.LSN, r.Sectors)
	case workload.OpFlush:
		return s.f.Flush()
	}
	return fmt.Errorf("host: unschedulable op %v", r.Op)
}

// complete retires a command at the current event time.
func (s *Scheduler) complete(c *Command) {
	if c.Class == ClassBackground {
		s.rep.BackLat.Record(c.latency())
		if s.onDispatch == nil {
			// Background ticks are purely internal; nothing can retain one
			// unless a dispatch hook observed it (tests may keep pointers).
			s.freeCmd(c)
		}
		return
	}
	if c.Chip < s.chips {
		s.chipBusy[c.Chip] = false
	}
	s.inflight--
	for i, o := range s.outstanding {
		if o == c {
			s.outstanding = append(s.outstanding[:i], s.outstanding[i+1:]...)
			break
		}
	}
	for _, o := range s.outstanding {
		if o.Seq < c.Seq {
			s.rep.OutOfOrder++
			break
		}
	}
	s.rep.Completed++
	if c.Err != nil {
		s.rep.Errors++
	}
	lat := c.latency()
	s.rep.HostLat.Record(lat)
	if c.Class == ClassRead {
		s.rep.ReadLat.Record(lat)
	} else {
		s.rep.WriteLat.Record(lat)
	}
}

// sampleSeries records the queue-depth and chip-utilization time series
// at the current event time.
func (s *Scheduler) sampleSeries() {
	s.rep.QueueDepth.Record(int64(s.now), float64(len(s.pending)+s.inflight))
	horizon := s.dev.DrainTime().Sub(s.drain0)
	if horizon > 0 {
		busy := s.dev.TotalChipBusy() - s.busy0
		s.rep.ChipUtil.Record(int64(s.now), float64(busy)/(float64(horizon)*float64(s.chips)))
	}
}
