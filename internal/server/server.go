// Package server exports a simulated SSD fleet as a network block
// device: an NBD-style length-prefixed TCP protocol (internal/wire) in
// front of one or more sharded host schedulers, with multi-tenant
// namespaces, admission control, and live HTTP introspection.
//
// # Architecture
//
// The simulator's backbone is a deterministic, single-threaded world:
// one goroutine owns an FTL, its device, and its virtual clock. The
// server scales out by running N such worlds — shards — side by side,
// each with its own engine goroutine, admission budget, and stall
// watchdog; the one-simulation-one-goroutine invariant holds per shard.
// Namespaces are routed to shards at carve time (consistent hash,
// explicit pin, or page striping across all shards); connection
// goroutines only parse frames, enforce admission, and forward
// shard-local fragments. Completions come back as per-command callbacks
// on the owning engine goroutines, joined per client command, and
// handed to per-connection writer goroutines through buffered channels
// sized so no engine can ever block on a slow or dead client.
//
// # Pacing
//
// Each shard's sim.Gate maps its virtual clock onto the wall clock at a
// configurable speedup, so the simulated devices' latencies shape the
// latencies clients observe; speedup 0 serves as fast as possible.
//
// # Backpressure
//
// Admission is layered semaphores: a per-connection in-flight cap
// (advertised in the handshake) and a per-shard budget across tenants.
// A reader that cannot acquire its slots stops reading its socket,
// pushing back through TCP flow control. Multi-shard commands acquire
// shard slots in ascending shard order, so admission cannot deadlock.
//
// # Drain
//
// Shutdown stops accepting, interrupts idle readers, waits for every
// in-flight command to complete and be answered, then closes each
// shard's submission channel so its engine retires; the per-shard
// reports merge into one fleet report. No accepted command is dropped.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/nand"
)

// Config parameterizes a server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// HTTPAddr, when non-empty, serves /stats and /metrics there.
	HTTPAddr string

	// EnablePprof additionally registers the net/http/pprof handlers
	// under /debug/pprof/ on the introspection listener, for live CPU
	// and heap profiling of a serving process. Requires HTTPAddr; off by
	// default because the profile endpoints expose internals and cost
	// CPU while sampling.
	EnablePprof bool

	// Shards is the number of independent device shards (default 1).
	// Every shard gets an identically configured device stack; each
	// runs its own FTL, virtual clock, and engine goroutine.
	Shards int

	// FTLKind picks the FTL ("cgmFTL", "fgmFTL", "subFTL"; default
	// subFTL), Geometry the device (default experiment.QuickGeometry),
	// LogicalFrac the exported fraction of raw capacity (default 0.70).
	FTLKind     string
	Geometry    nand.Geometry
	LogicalFrac float64
	// PreconditionFrac sequentially prefills this fraction of each
	// shard's logical space before serving, bringing the FTLs to steady
	// state.
	PreconditionFrac float64

	// Speedup paces virtual time at this many virtual nanoseconds per
	// wall nanosecond; 0 serves as fast as possible.
	Speedup float64

	// Namespaces carves the logical space (default: one namespace
	// "default"; with multiple shards it lands on its hash shard).
	Namespaces []NamespaceSpec

	// PerConnInflight caps commands in flight per connection (default
	// 32); MaxInflight is each shard's admission budget across
	// connections (default 256).
	PerConnInflight int
	MaxInflight     int

	// TickEvery and Arbitration configure the host schedulers (defaults
	// 64, "fifo").
	TickEvery   int
	Arbitration string

	// GCPolicy, GCStepPages and GCBackgroundSlack configure each FTL's
	// garbage-collection engine: victim policy ("greedy", "cost-benefit",
	// "windowed"), pages copied per collection step (0 = whole-block),
	// and how close to the reserve the free pool may fall before Tick
	// runs background steps (0 = foreground-only GC). Ignored when
	// Stacks or the Device hook supplies pre-built FTLs.
	GCPolicy          string
	GCStepPages       int
	GCBackgroundSlack int

	// ErasePolicy selects each shard's adaptive erase-depth policy
	// ("fixed-deep", "aero"; empty = legacy full-depth erases) and
	// Lifetime enables the longevity predictor and hot/cold placement
	// steering. Ignored when Stacks or the Device hook supplies
	// pre-built FTLs.
	ErasePolicy string
	Lifetime    bool

	// WriteTimeout bounds each socket write of replies to a client; a
	// connection that cannot absorb one within it is declared dead and
	// drained without blocking the engines (default 5s).
	WriteTimeout time.Duration

	// AdmitTimeout bounds how long a reader waits for its admission
	// slots before answering RETRYABLE instead; 0 blocks forever (pure
	// TCP backpressure, the pre-degraded-mode behavior).
	AdmitTimeout time.Duration

	// WatchdogInterval is the per-shard engine-stall watchdog's sampling
	// period (default 1s; negative disables). WatchdogStalls consecutive
	// samples with commands in flight but no completion progress fence
	// that shard's namespaces (default 5). Raise the interval when
	// pacing with a large slow-down factor: a legitimately gated command
	// must complete within Interval×Stalls of wall time.
	WatchdogInterval time.Duration
	WatchdogStalls   int

	// Stacks, when non-empty, serves these pre-built device stacks —
	// one per shard — instead of assembling them; Shards must be unset
	// or equal to len(Stacks). The hook tests use to serve devices with
	// armed fault injectors or crash survivors.
	Stacks []ShardStack

	// Device, FTL and LogicalSectors are the single-shard form of
	// Stacks, kept for the existing tests; setting them is equivalent to
	// Stacks with one entry.
	Device         *nand.Device
	FTL            ftl.FTL
	LogicalSectors int64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.FTLKind == "" {
		c.FTLKind = string(experiment.KindSub)
	}
	if c.Geometry.Channels == 0 {
		c.Geometry = experiment.QuickGeometry
	}
	if c.LogicalFrac == 0 {
		c.LogicalFrac = 0.70
	}
	if c.PerConnInflight == 0 {
		c.PerConnInflight = 32
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.TickEvery == 0 {
		c.TickEvery = 64
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = time.Second
	}
	if c.WatchdogStalls == 0 {
		c.WatchdogStalls = 5
	}
	return c
}

// Server is one served fleet: N shard engines running the host
// scheduler's external mode, an accept loop, and per-connection
// reader/writer pairs.
type Server struct {
	cfg    Config
	shards []*shard
	nss    []*namespace

	sectorBytes int
	pageSectors int

	ln     net.Listener
	httpLn net.Listener
	httpSv *http.Server

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	draining atomic.Bool
	served   atomic.Bool
	// drained closes when the first Shutdown caller has fully retired
	// the engines and published the merged report.
	drained   chan struct{}
	rep       *host.Report
	engineErr error
}

// New assembles the shard device stacks and carves the namespaces;
// Serve starts them.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	stacks := cfg.Stacks
	if cfg.Device != nil {
		if len(stacks) > 0 {
			return nil, fmt.Errorf("server: set either Stacks or the Device hook, not both")
		}
		stacks = []ShardStack{{Device: cfg.Device, FTL: cfg.FTL, LogicalSectors: cfg.LogicalSectors}}
	}
	if len(stacks) > 0 {
		if cfg.Shards != 1 && cfg.Shards != len(stacks) {
			return nil, fmt.Errorf("server: Shards=%d but %d stacks supplied", cfg.Shards, len(stacks))
		}
		cfg.Shards = len(stacks)
	}
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		var stack *ShardStack
		if len(stacks) > 0 {
			stack = &stacks[i]
		}
		sh, err := buildShard(i, cfg, stack)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	// Striping and the shared wire handshake assume one sector and page
	// size across the fleet.
	g := shards[0].dev.Geometry()
	for _, sh := range shards[1:] {
		sg := sh.dev.Geometry()
		if sg.SubpageBytes != g.SubpageBytes || sg.SubpagesPerPage != g.SubpagesPerPage {
			return nil, fmt.Errorf("server: shard %d geometry (%dB x%d) differs from shard 0 (%dB x%d)",
				sh.idx, sg.SubpageBytes, sg.SubpagesPerPage, g.SubpageBytes, g.SubpagesPerPage)
		}
	}
	nss, err := carve(cfg.Namespaces, shards, g.SubpagesPerPage)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:         cfg,
		shards:      shards,
		nss:         nss,
		sectorBytes: g.SubpageBytes,
		pageSectors: g.SubpagesPerPage,
		conns:       make(map[net.Conn]struct{}),
		drained:     make(chan struct{}),
	}, nil
}

// Serve starts the shard engines, the TCP accept loop, and (when
// configured) the HTTP introspection listener. It returns once
// everything is listening; Addr reports the bound address.
func (s *Server) Serve() error {
	if s.served.Swap(true) {
		return fmt.Errorf("server: already serving")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.httpLn = hln
		s.httpSv = &http.Server{Handler: s.httpMux()}
		go s.httpSv.Serve(hln)
	}
	for _, sh := range s.shards {
		sh.start(s.cfg)
	}
	go s.acceptLoop()
	return nil
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain in progress
		}
		s.connWG.Add(1)
		go s.handle(c)
	}
}

// Addr returns the bound TCP address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the bound introspection address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Inflight returns the number of commands currently holding admission
// slots, summed across shards.
func (s *Server) Inflight() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.inflight()
	}
	return n
}

// ShardCount returns the number of device shards.
func (s *Server) ShardCount() int { return len(s.shards) }

// Device exposes shard 0's device for tests (fault arming, state probes
// after drain).
func (s *Server) Device() *nand.Device { return s.shards[0].dev }

// FTL exposes shard 0's FTL behind its concurrency guard; ShardFTL
// addresses the others.
func (s *Server) FTL() *ftl.Guard { return s.shards[0].guard }

// ShardFTL exposes one shard's FTL behind its concurrency guard.
func (s *Server) ShardFTL(i int) *ftl.Guard { return s.shards[i].guard }

// ShardInflight returns the number of commands holding one shard's
// admission slots.
func (s *Server) ShardInflight(i int) int { return s.shards[i].inflight() }

// MountReport returns the recovery report of shard 0's serve-time
// mount.
func (s *Server) MountReport() ftl.MountReport { return s.shards[0].mounted }

// NamespaceVersion resolves a namespace-relative sector to its owning
// shard and returns that FTL's version counter for it — the
// differential tests' probe for what the device durably holds,
// placement-agnostic. The guard lock serializes against the owning
// engine only.
func (s *Server) NamespaceVersion(name string, lsn int64) (uint32, error) {
	ns := s.lookup(name)
	if ns == nil {
		return 0, errUnknownNamespace(name)
	}
	if err := ns.bounds(lsn, 1); err != nil {
		return 0, err
	}
	sh, local := ns.shardLSN(lsn)
	return sh.guard.VersionOf(local), nil
}

// Shutdown drains gracefully: stop accepting, interrupt idle readers,
// wait for every accepted command to complete and every reply to be
// written (or its connection declared dead), then retire every shard
// engine and return the merged fleet report. Safe to call once;
// concurrent callers wait for the same drain.
func (s *Server) Shutdown() (*host.Report, error) {
	if s.draining.Swap(true) {
		<-s.drained
		return s.rep, s.engineErr
	}
	s.ln.Close()
	for _, sh := range s.shards {
		// The drain waits for in-flight commands below; a paced tail
		// must not be mistaken for a stall and fenced mid-drain.
		sh.stopWatchdog()
	}
	s.connMu.Lock()
	for c := range s.conns {
		// Readers blocked in ReadCmd wake with a deadline error; readers
		// mid-submission finish their current command first.
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	reps := make([]*host.Report, len(s.shards))
	for _, sh := range s.shards {
		close(sh.sub)
	}
	for i, sh := range s.shards {
		<-sh.engineDone
		reps[i] = sh.rep
		if sh.engineErr != nil && s.engineErr == nil {
			s.engineErr = fmt.Errorf("server: shard %d: %w", sh.idx, sh.engineErr)
		}
	}
	s.rep = mergeReports(reps)
	if s.httpSv != nil {
		// Graceful HTTP teardown: in-flight /stats and /metrics requests
		// (a drain-watcher polling for Draining:true, say) finish before
		// the listener dies; laggards are cut at the timeout.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		s.httpSv.Shutdown(ctx)
		cancel()
	}
	close(s.drained)
	return s.rep, s.engineErr
}

func (s *Server) track(c net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		s.conns[c] = struct{}{}
		if s.draining.Load() {
			// Shutdown may already have swept the map: make sure this
			// late connection is interrupted too.
			c.SetReadDeadline(time.Now())
		}
	} else {
		delete(s.conns, c)
	}
}

func (s *Server) lookup(name string) *namespace {
	for _, ns := range s.nss {
		if ns.name == name {
			return ns
		}
	}
	return nil
}
