package ftl

import (
	"errors"
	"fmt"

	"espftl/internal/gc"
	"espftl/internal/nand"
)

// MaxProgramReplays bounds how many fresh blocks a single program may burn
// through on consecutive injected program failures before the error is
// surfaced instead of retried.
const MaxProgramReplays = 8

// appendPoint is one open block being filled sequentially, pinned to a
// preferred chip so the stripe covers the device's parallelism.
type appendPoint struct {
	block  nand.BlockID
	cursor int
	set    bool
	chip   int
}

// stripe is a rotating set of append points.
type stripe struct {
	points []appendPoint
	next   int
}

func newStripe(width, chips int) stripe {
	if width < 1 {
		width = 1
	}
	s := stripe{points: make([]appendPoint, width)}
	for i := range s.points {
		s.points[i].chip = i * chips / width
	}
	return s
}

// borrow returns a set append point with page capacity left, if any. When
// the free pool is at its margin, a GC destination refill reuses another
// point's open block instead of allocating: chip parallelism degrades but
// one fresh destination block always covers a whole drain (a victim has at
// most PagesPerBlock live pages), so collection never exhausts the pool.
func (s *stripe) borrow(pagesPerBlock int) *appendPoint {
	for i := range s.points {
		if s.points[i].set && s.points[i].cursor < pagesPerBlock {
			return &s.points[i]
		}
	}
	return nil
}

// Allocator is the append-stripe page allocator shared by the
// page-programming FTLs: fgmFTL directly, cgmFTL and subFTL's full-page
// region through fullpage.Store. Append points are striped so consecutive
// page programs land on different chips and overlap on the timeline; the
// host writes and GC relocations each rotate over their own stripe, and
// the optional cold stripe packs host writes classified long-lived into
// blocks that rarely need collecting. It also paces the collector that reclaims its role's blocks,
// and is itself that collector's gc.Target: it supplies the victim view and
// recycles drained blocks, while the caller's begin and work functions do
// the page moves.
type Allocator struct {
	dev   *nand.Device
	man   *Manager
	stats *Stats
	role  Role
	tag   uint8
	units int // valid-count units per block, for the GC view

	host stripe
	gc   stripe
	cold stripe

	// refill is the caller's policy, run before a host or cold append
	// point opens a fresh block: it decides when foreground GC runs.
	refill func() error
	// begin resets the caller's per-victim cursor; work relocates the next
	// live unit of the victim (see gc.Target's Begin and Work).
	begin func(b nand.BlockID)
	work  func(b nand.BlockID) (copied int, done bool, err error)

	reserve int // free-pool level at or below which the write tax is due
	slack   int // background GC slack above the reserve (0 = no Tick work)
	col     *gc.Collector
	// view caches the manager view handed to the collector: rebuilding it
	// per step would put an allocation in every Tick.
	view gc.View

	// held counts the role's blocks: opened, adopted at mount, minus
	// recycled.
	held int

	// stampsFree recycles page-sized stamp scratch. A freelist rather than
	// a single buffer because programs nest: a host program can trigger GC
	// whose relocations program pages of their own while the outer call's
	// stamps are still live.
	stampsFree [][]nand.Stamp
}

// NewAllocator builds an allocator for role's blocks whose programs carry
// the given OOB tag. units is the valid-count unit per block the GC view
// reports; reserve is the free-pool level of the write tax; hostWidth and
// gcWidth size the host and GC stripes. refill runs before a host or cold
// point opens a block; begin and work are the collector's page moves. The
// collector is whole-block greedy until SetGC.
func NewAllocator(dev *nand.Device, man *Manager, stats *Stats, role Role, tag uint8, units, reserve, hostWidth, gcWidth int, refill func() error, begin func(nand.BlockID), work func(nand.BlockID) (int, bool, error)) *Allocator {
	chips := dev.Geometry().Chips()
	return &Allocator{
		dev:     dev,
		man:     man,
		stats:   stats,
		role:    role,
		tag:     tag,
		units:   units,
		host:    newStripe(hostWidth, chips),
		gc:      newStripe(gcWidth, chips),
		refill:  refill,
		begin:   begin,
		work:    work,
		reserve: reserve,
		col:     gc.NewCollector(gc.Greedy{}, 0),
	}
}

// EnableCold opens the cold stripe. Cold data trickles, so a narrow stripe
// suffices: it keeps the open-block overhead at two blocks instead of a
// chip-wide set.
func (a *Allocator) EnableCold() {
	if len(a.cold.points) == 0 {
		chips := a.dev.Geometry().Chips()
		a.cold = newStripe(min(2, chips), chips)
	}
}

// Width is the total number of append points: the most blocks the
// allocator holds open at once.
func (a *Allocator) Width() int {
	return len(a.host.points) + len(a.gc.points) + len(a.cold.points)
}

// Held is the number of blocks the role currently holds.
func (a *Allocator) Held() int { return a.held }

// SetGC replaces the collector with one configured from opts. Call it
// before any I/O.
func (a *Allocator) SetGC(opts gc.Options) error {
	p, err := gc.NewPolicy(opts)
	if err != nil {
		return err
	}
	a.col = gc.NewCollector(p, opts.StepPages)
	a.slack = opts.BackgroundSlack
	a.view = nil
	return nil
}

// Collector exposes the collector for stats snapshots and in-flight
// checks.
func (a *Allocator) Collector() *gc.Collector { return a.col }

// Floor is the free-pool level at or below which a host refill must
// collect first. With a budgeted collector the reserve's upper half is a
// cushion instead: allocation proceeds while bounded steps repay the
// debt, and whole-victim drains happen only at a hard floor of at most 8
// blocks — a failure recovery margin (4), the one destination refill a
// drain may need (past the margin, refills borrow open destination
// blocks), and headroom for subFTL's unguarded region-GC destination.
func (a *Allocator) Floor() int {
	if a.col.Budgeted() {
		return min(8, a.reserve)
	}
	return a.reserve
}

// Stamps takes a page-sized stamp buffer off the freelist.
func (a *Allocator) Stamps() []nand.Stamp {
	if n := len(a.stampsFree); n > 0 {
		buf := a.stampsFree[n-1]
		a.stampsFree = a.stampsFree[:n-1]
		return buf
	}
	return make([]nand.Stamp, a.dev.Geometry().SubpagesPerPage)
}

// PutStamps returns a buffer taken with Stamps.
func (a *Allocator) PutStamps(buf []nand.Stamp) {
	a.stampsFree = append(a.stampsFree, buf)
}

// Program writes stamps to the next page of the GC stripe (forGC), the
// cold stripe (cold; see EnableCold) or the host stripe, and returns that
// page. A program failure destroys only the fresh copy — the caller's
// mapping still points at the old one — so the failed block is retired
// (grown bad) and the program replayed on a fresh block, at most
// MaxProgramReplays times.
func (a *Allocator) Program(stamps []nand.Stamp, forGC, cold bool) (nand.PageID, error) {
	st := &a.host
	if forGC {
		st = &a.gc
	} else if cold {
		st = &a.cold
		a.stats.LifetimeSegregated++
	}
	for attempt := 0; ; attempt++ {
		p, err := a.allocPage(st, forGC)
		if err != nil {
			return 0, err
		}
		_, err = a.dev.ProgramPageTag(p, stamps, a.tag)
		if err == nil {
			return p, nil
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= MaxProgramReplays {
			return 0, err
		}
		a.retireFailed(a.dev.Geometry().BlockOfPage(p), st)
		a.stats.ProgramFailMoves++
	}
}

// allocPage returns the next physical page, rotating across the stripe's
// append points so consecutive programs hit different chips. The GC
// stripe never runs the refill policy (that would recurse into GC); the
// reserve guarantees its blocks are available.
func (a *Allocator) allocPage(st *stripe, forGC bool) (nand.PageID, error) {
	g := a.dev.Geometry()
	ap := &st.points[st.next]
	st.next = (st.next + 1) % len(st.points)
	if ap.set && ap.cursor >= g.PagesPerBlock {
		a.man.MarkFull(ap.block)
		ap.set = false
	}
	if !ap.set {
		if !forGC {
			if err := a.refill(); err != nil {
				return 0, err
			}
		} else if a.col.Budgeted() && a.man.FreeCount() <= 4 {
			// The pool is at its recovery margin: reuse an open destination
			// block rather than allocate (see stripe.borrow). Unbudgeted
			// collection never gets here — its reserve covers a full-stripe
			// rollover.
			if bp := st.borrow(g.PagesPerBlock); bp != nil {
				ap = bp
			}
		}
	}
	if !ap.set {
		b, ok := a.man.AllocOnChip(a.role, ap.chip)
		if !ok {
			return 0, fmt.Errorf("ftl: free pool exhausted (role %v)", a.role)
		}
		a.held++
		ap.block, ap.set, ap.cursor = b, true, 0
	}
	p := g.PageOf(ap.block, ap.cursor)
	ap.cursor++
	return p, nil
}

// retireFailed retires the append block a program failure hit and drops it
// from its stripe so the replay allocates a fresh block. The block's state
// moves to full; GC later drains whatever live data it already held and
// parks it in StateBad.
func (a *Allocator) retireFailed(b nand.BlockID, st *stripe) {
	a.man.Retire(b)
	for i := range st.points {
		if st.points[i].set && st.points[i].block == b {
			st.points[i].set = false
		}
	}
}

// Adopt installs a block scanned at mount as a full block of the role.
func (a *Allocator) Adopt(b nand.BlockID, valid int) error {
	if err := a.man.Adopt(b, a.role, valid); err != nil {
		return err
	}
	a.held++
	return nil
}

// Pay runs one bounded collection step if the collector is budgeted and
// the free pool is at or below the reserve — the incremental write tax.
// "Nothing collectable" is not a debt the payer can settle; it is
// swallowed so callers stay on their host path.
func (a *Allocator) Pay() error {
	if !a.col.Budgeted() || a.man.FreeCount() > a.reserve {
		return nil
	}
	_, err := a.StepOnce()
	return noVictimOK(err)
}

// Tick is the background collection of an FTL whose only victims are this
// allocator's blocks: with background slack configured, one bounded step
// whenever the free pool is within the slack of the reserve or a
// preempted victim is pending. Ticks are background-class commands in the
// host scheduler, so these steps yield to pending host reads.
func (a *Allocator) Tick() error {
	if a.slack <= 0 || !a.col.Active() && a.man.FreeCount() > a.reserve+a.slack {
		return nil
	}
	_, err := a.StepOnce()
	return noVictimOK(err)
}

// noVictimOK drops gc.ErrNoVictim: nothing collectable yet (every block
// open or already clean) is not an error for opportunistic collection.
func noVictimOK(err error) error {
	if errors.Is(err, gc.ErrNoVictim) {
		return nil
	}
	return err
}

// CollectOnce drains one whole victim: the foreground (out-of-space)
// contract of freeing exactly one block per call. A victim a background
// step left checkpointed mid-drain is finished first.
func (a *Allocator) CollectOnce() error {
	if err := a.col.Collect(a); err != nil {
		if errors.Is(err, gc.ErrNoVictim) {
			return fmt.Errorf("ftl: GC has no victim (role %v, %d blocks, %d free)", a.role, a.held, a.man.FreeCount())
		}
		return err
	}
	return nil
}

// StepOnce runs one bounded collection step (at most the configured
// StepPages relocations), reporting whether a block was freed. It returns
// gc.ErrNoVictim untranslated so opportunistic callers can swallow it.
func (a *Allocator) StepOnce() (bool, error) {
	return a.col.Step(a)
}

// View implements gc.Target: the role's full blocks, the in-flight victim
// excluded by construction.
func (a *Allocator) View() gc.View {
	if a.view == nil {
		a.view = a.man.GCView(a.role, a.units, a.col.InFlight)
	}
	return a.view
}

// Fallback implements gc.Target; an append stripe has no secondary victim
// source.
func (a *Allocator) Fallback() (nand.BlockID, bool) { return 0, false }

// Begin implements gc.Target through the caller's begin.
func (a *Allocator) Begin(b nand.BlockID) { a.begin(b) }

// Work implements gc.Target through the caller's work.
func (a *Allocator) Work(b nand.BlockID) (int, bool, error) { return a.work(b) }

// Release implements gc.Target: recycle the drained victim.
func (a *Allocator) Release(b nand.BlockID) error {
	if err := a.man.Recycle(b); err != nil {
		return err
	}
	a.held--
	return nil
}
