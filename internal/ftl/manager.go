package ftl

import (
	"errors"
	"fmt"

	"espftl/internal/gc"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// Role is the dynamic purpose of a block. In subFTL the role is "decided
// at the program time, not at the design time" (paper §4.2): any free
// block can become a subpage-region or full-page-region block when
// allocated, which is also how region wear imbalance is leveled.
type Role uint8

// Block roles.
const (
	RoleNone Role = iota // free, unassigned
	RoleFull             // full-page region (or the only region in cgm/fgm)
	RoleSub              // subpage region
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleFull:
		return "full"
	case RoleSub:
		return "sub"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// BlockState is the lifecycle state of a block.
type BlockState uint8

// Block lifecycle states.
const (
	StateFree BlockState = iota // erased, in the free pool
	StateOpen                   // allocated, still being filled
	StateFull                   // filled; GC candidate
	StateBad                    // retired (factory or grown bad); never allocated again
)

// blockMeta is the manager's per-block record.
type blockMeta struct {
	state BlockState
	role  Role
	// valid counts live logical units in the block; the unit is the
	// owning FTL's choice (sectors, pages or subpages) but must be used
	// consistently.
	valid int
	// bad marks a retired block. A bad block that still holds valid data
	// stays in StateFull until GC drains it; once empty it Recycles into
	// StateBad instead of returning to the pool.
	bad bool
	// lastInval is the virtual time the block last lost a valid unit (or
	// was sealed full, whichever came later): the age input of the
	// cost-benefit and windowed GC policies. Never consulted for free or
	// open blocks.
	lastInval sim.Time
}

// Manager owns block lifecycle for an FTL: a wear-aware free pool kept as
// one min-heap per chip (least worn block allocated first — dynamic wear
// leveling — while allocation can target a chip, which is how the FTLs'
// append stripes spread load over every channel and way), per-block
// validity accounting, and greedy victim selection.
type Manager struct {
	dev  *nand.Device
	meta []blockMeta
	// free[chip] is a binary min-heap of that chip's free blocks keyed by
	// erase count.
	free  [][]nand.BlockID
	total int
	// rr rotates untargeted allocations across chips so wear ties do not
	// pile work onto chip 0.
	rr int
	// bad counts retired blocks (factory plus grown); floor, when set, is
	// the usable-block count below which the manager reports read-only
	// degradation.
	bad   int
	floor int
	// depthFn, when set, chooses the erase depth of every Recycle
	// (adaptive erase; see internal/lifetime). Nil keeps the legacy
	// full-depth erase path, bit-identical to a manager without the hook.
	depthFn func(nand.BlockID) nand.EraseDepth
}

// NewManager returns a manager over every block of the device, all free
// except those the device's fault model marks factory-bad.
func NewManager(dev *nand.Device) *Manager {
	g := dev.Geometry()
	n := g.TotalBlocks()
	m := &Manager{
		dev:  dev,
		meta: make([]blockMeta, n),
		free: make([][]nand.BlockID, g.Chips()),
	}
	for b := 0; b < n; b++ {
		id := nand.BlockID(b)
		if dev.FactoryBad(id) {
			m.meta[b] = blockMeta{state: StateBad, bad: true}
			m.bad++
			continue
		}
		chip := g.ChipOf(id)
		m.free[chip] = append(m.free[chip], id)
	}
	m.total = n - m.bad
	return m
}

func (m *Manager) less(a, b nand.BlockID) bool {
	ea, eb := m.dev.EraseCount(a), m.dev.EraseCount(b)
	if ea != eb {
		return ea < eb
	}
	return a < b
}

func (m *Manager) siftUp(chip, i int) {
	h := m.free[chip]
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (m *Manager) siftDown(chip, i int) {
	h := m.free[chip]
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && m.less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// FreeCount returns the number of blocks in the free pool.
func (m *Manager) FreeCount() int { return m.total }

func (m *Manager) popChip(chip int, role Role) (nand.BlockID, bool) {
	h := m.free[chip]
	if len(h) == 0 {
		return 0, false
	}
	b := h[0]
	last := len(h) - 1
	h[0] = h[last]
	m.free[chip] = h[:last]
	if last > 0 {
		m.siftDown(chip, 0)
	}
	m.total--
	m.meta[b] = blockMeta{state: StateOpen, role: role}
	return b, true
}

// Alloc pops the least-worn free block device-wide and opens it with the
// given role; wear ties rotate across chips. The second result is false
// when the pool is empty.
func (m *Manager) Alloc(role Role) (nand.BlockID, bool) {
	best := -1
	n := len(m.free)
	for i := 0; i < n; i++ {
		chip := (m.rr + i) % n
		if len(m.free[chip]) == 0 {
			continue
		}
		if best < 0 || m.less(m.free[chip][0], m.free[best][0]) {
			best = chip
		}
	}
	m.rr = (m.rr + 1) % n
	if best < 0 {
		return 0, false
	}
	return m.popChip(best, role)
}

// AllocOnChip pops the least-worn free block of the given chip, falling
// back to any chip when that one is exhausted. Append stripes use it to
// keep one open block per chip.
func (m *Manager) AllocOnChip(role Role, chip int) (nand.BlockID, bool) {
	if chip >= 0 && chip < len(m.free) {
		if b, ok := m.popChip(chip, role); ok {
			return b, true
		}
	}
	return m.Alloc(role)
}

// MarkFull transitions an open block to the full (GC-candidate) state.
func (m *Manager) MarkFull(b nand.BlockID) {
	if m.meta[b].state != StateOpen {
		panic(fmt.Sprintf("ftl: MarkFull on block %d in state %d", b, m.meta[b].state))
	}
	m.meta[b].state = StateFull
	m.meta[b].lastInval = m.dev.Clock().Now()
}

// Adopt installs a scanned block's state at mount time: the block leaves
// the free pool and becomes a full (GC-eligible) block of the given role
// with the given valid count. Recovery never reopens blocks — a block that
// was open at the crash is adopted as full and its unwritten pages are
// reclaimed by the next GC cycle — so the invariant "append points only
// ever target blocks the current epoch opened" survives the mount.
func (m *Manager) Adopt(b nand.BlockID, role Role, valid int) error {
	if m.meta[b].state != StateFree {
		return fmt.Errorf("ftl: adopting block %d in state %d", b, m.meta[b].state)
	}
	m.removeFree(b)
	m.meta[b] = blockMeta{state: StateFull, role: role, valid: valid, lastInval: m.dev.Clock().Now()}
	return nil
}

// Recycle erases a block (which must hold no valid units) and returns it
// to the free pool. A block already retired — or whose erase fails, which
// retires it — transitions to StateBad instead: the caller's drain
// succeeded, there is just no block to reuse.
func (m *Manager) Recycle(b nand.BlockID) error {
	if m.meta[b].valid != 0 {
		return fmt.Errorf("ftl: recycling block %d with %d valid units", b, m.meta[b].valid)
	}
	switch m.meta[b].state {
	case StateFree:
		return fmt.Errorf("ftl: recycling free block %d", b)
	case StateBad:
		return fmt.Errorf("ftl: recycling retired block %d", b)
	}
	if m.meta[b].bad {
		m.meta[b].state = StateBad
		return nil
	}
	depth := nand.DepthFull
	if m.depthFn != nil {
		depth = m.depthFn(b)
	}
	if _, err := m.dev.EraseAt(b, depth); err != nil {
		if errors.Is(err, nand.ErrEraseFail) {
			m.meta[b].bad = true
			m.meta[b].state = StateBad
			m.bad++
			return nil
		}
		return err
	}
	m.meta[b] = blockMeta{state: StateFree}
	chip := m.dev.Geometry().ChipOf(b)
	m.free[chip] = append(m.free[chip], b)
	m.siftUp(chip, len(m.free[chip])-1)
	m.total++
	return nil
}

// SetEraseDepth installs the erase-depth hook consulted on every Recycle:
// given the block about to be erased, it returns the depth to erase at.
// The hook is how an adaptive erase policy (internal/lifetime) plugs into
// the block lifecycle without the manager knowing the policy; nil restores
// the legacy full-depth behaviour.
func (m *Manager) SetEraseDepth(fn func(nand.BlockID) nand.EraseDepth) { m.depthFn = fn }

// Retire marks b grown-bad: it leaves the free pool permanently and is
// never allocated again. An open block transitions to full so GC can
// drain any live data it still holds; once drained, Recycle parks it in
// StateBad.
func (m *Manager) Retire(b nand.BlockID) {
	mt := &m.meta[b]
	if mt.bad {
		return
	}
	mt.bad = true
	m.bad++
	switch mt.state {
	case StateFree:
		m.removeFree(b)
		mt.state = StateBad
	case StateOpen:
		mt.state = StateFull
	}
}

// removeFree deletes b from its chip's free heap.
func (m *Manager) removeFree(b nand.BlockID) {
	chip := m.dev.Geometry().ChipOf(b)
	h := m.free[chip]
	for i := range h {
		if h[i] != b {
			continue
		}
		last := len(h) - 1
		h[i] = h[last]
		m.free[chip] = h[:last]
		if i < last {
			m.siftDown(chip, i)
			m.siftUp(chip, i)
		}
		m.total--
		return
	}
}

// BadCount returns how many blocks are retired (factory plus grown bad).
func (m *Manager) BadCount() int { return m.bad }

// SetCapacityFloor sets the usable-block count below which ReadOnly
// reports degradation. Zero (the default) disables the check.
func (m *Manager) SetCapacityFloor(n int) { m.floor = n }

// Usable returns the number of non-retired blocks.
func (m *Manager) Usable() int { return len(m.meta) - m.bad }

// ReadOnly reports whether bad blocks have eaten the spare capacity down
// to the configured floor. FTLs check it on the write path and degrade to
// read-only service instead of wedging inside GC.
func (m *Manager) ReadOnly() bool { return m.floor > 0 && m.Usable() < m.floor }

// State, Role and Valid expose per-block records.
func (m *Manager) State(b nand.BlockID) BlockState { return m.meta[b].state }
func (m *Manager) Role(b nand.BlockID) Role        { return m.meta[b].role }
func (m *Manager) Valid(b nand.BlockID) int        { return m.meta[b].valid }

// AddValid adjusts the valid-unit count of a block. Invalidations
// (negative deltas) refresh the block's last-invalidate timestamp, the
// age signal the cost-benefit and windowed policies select on.
func (m *Manager) AddValid(b nand.BlockID, delta int) {
	v := m.meta[b].valid + delta
	if v < 0 {
		panic(fmt.Sprintf("ftl: block %d valid count went negative", b))
	}
	m.meta[b].valid = v
	if delta < 0 {
		m.meta[b].lastInval = m.dev.Clock().Now()
	}
}

// LastInvalidate returns the virtual time b last lost a valid unit (or
// was sealed, for blocks untouched since MarkFull/Adopt).
func (m *Manager) LastInvalidate(b nand.BlockID) sim.Time { return m.meta[b].lastInval }

// WearDist snapshots the device-wide block wear distribution (see
// WearAcc). Called from Stats(), not on any hot path.
func (m *Manager) WearDist() WearDist {
	acc := NewWearAcc()
	acc.Add(m.dev)
	return acc.Dist()
}

// WearAcc accumulates per-block wear into a WearDist: erase counts through
// an exact integer histogram, effective wear through a deci-wear histogram
// (0.1 deep-erase-equivalent resolution for the p99; min/max/mean are
// exact). Adding several devices gives the distribution over the union of
// their blocks — the fleet view of a sharded server.
type WearAcc struct {
	d       WearDist
	eh, wh  *metrics.IntHistogram
	wearSum float64
}

// NewWearAcc returns an empty accumulator.
func NewWearAcc() *WearAcc {
	return &WearAcc{eh: metrics.NewIntHistogram(256), wh: metrics.NewIntHistogram(1024)}
}

// Add records every block of dev.
func (a *WearAcc) Add(dev *nand.Device) {
	for b := 0; b < dev.Geometry().TotalBlocks(); b++ {
		id := nand.BlockID(b)
		e, w := dev.EraseCount(id), dev.EffectiveWear(id)
		if a.d.Blocks == 0 || e < a.d.EraseMin {
			a.d.EraseMin = e
		}
		if a.d.Blocks == 0 || w < a.d.WearMin {
			a.d.WearMin = w
		}
		a.d.WearMax = max(a.d.WearMax, w)
		a.d.Blocks++
		a.eh.Record(e)
		a.wh.Record(int(w*10 + 0.5))
		a.wearSum += w
	}
}

// Dist returns the distribution over every block added so far.
func (a *WearAcc) Dist() WearDist {
	d := a.d
	if d.Blocks == 0 {
		return d
	}
	d.EraseMax = a.eh.Max()
	d.EraseMean = a.eh.Mean()
	d.EraseP99 = a.eh.Quantile(0.99)
	d.WearMean = a.wearSum / float64(d.Blocks)
	d.WearP99 = float64(a.wh.Quantile(0.99)) / 10
	return d
}

// TotalValid sums valid units over all blocks of a role.
func (m *Manager) TotalValid(role Role) int {
	sum := 0
	for b := range m.meta {
		if m.meta[b].role == role && m.meta[b].state != StateFree {
			sum += m.meta[b].valid
		}
	}
	return sum
}

// gcView adapts the manager's bookkeeping to the policy engine's
// read-only selection view: candidates are the full blocks of one role,
// minus whatever the exclude hook (the collector's in-flight check)
// vetoes.
type gcView struct {
	m       *Manager
	role    Role
	units   int
	exclude func(nand.BlockID) bool
}

// GCView builds a gc.View over the manager's blocks of one role.
// unitsPerBlock is the valid-count denominator in the owning FTL's
// units; exclude (optional) vetoes individual candidates — every FTL
// passes its collector's InFlight so the block being drained can never
// be selected again, the unified replacement for the ad-hoc nil/guard
// exclude arguments the FTLs used to thread into Victim.
func (m *Manager) GCView(role Role, unitsPerBlock int, exclude func(nand.BlockID) bool) gc.View {
	return &gcView{m: m, role: role, units: unitsPerBlock, exclude: exclude}
}

func (v *gcView) Blocks() int { return len(v.m.meta) }

func (v *gcView) Candidate(b nand.BlockID) bool {
	mt := &v.m.meta[b]
	if mt.state != StateFull || mt.role != v.role {
		return false
	}
	return v.exclude == nil || !v.exclude(b)
}

func (v *gcView) Valid(b nand.BlockID) int               { return v.m.meta[b].valid }
func (v *gcView) UnitsPerBlock() int                     { return v.units }
func (v *gcView) EraseCount(b nand.BlockID) int          { return v.m.dev.EraseCount(b) }
func (v *gcView) EffectiveWear(b nand.BlockID) float64   { return v.m.dev.EffectiveWear(b) }
func (v *gcView) LastInvalidate(b nand.BlockID) sim.Time { return v.m.meta[b].lastInval }
func (v *gcView) Now() sim.Time                          { return v.m.dev.Clock().Now() }
