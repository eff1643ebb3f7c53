// Package fullpage implements the coarse-grained-mapping (CGM) full-page
// store: logical pages map one-to-one onto physical pages, every program
// writes a whole page, and writes smaller than a page pay a
// read-modify-write. It is used directly by cgmFTL and as the full-page
// region of subFTL (paper §4: "the full-page region is managed in exactly
// the same way as the CGM-based FTLs").
package fullpage

import (
	"fmt"
	"math/bits"

	"espftl/internal/ftl"
	"espftl/internal/mapping"
	"espftl/internal/nand"
)

// Store is a CGM region over a shared block manager. All methods are
// in units of logical pages (LPN) and sector indices within a page.
type Store struct {
	// Allocator owns the host, GC and optional cold append stripes and
	// paces the collector; the store supplies the refill policy
	// (ensureCapacity) and the page moves (beginGC, workGC).
	*ftl.Allocator

	dev   *nand.Device
	man   *ftl.Manager
	ver   *ftl.Versions
	stats *ftl.Stats
	role  ftl.Role

	table *mapping.CoarseTable
	rmap  []int64  // PPN -> LPN (valid only if table agrees)
	masks []uint64 // LPN -> bitmask of live sectors within the page

	pageSecs int

	// coldFn, when set, classifies a host-written logical page as
	// long-lived (route to the cold stripe). Nil keeps the two-stripe
	// layout, bit-identical to a store without segregation.
	coldFn func(lpn int64) bool

	maxBlocks int // role quota (0 = unlimited)

	// reclaim, when set, is tried before GC to free a block some other
	// way (subFTL reclaims empty subpage-region blocks — the paper's
	// dynamic block-role conversion). It reports whether a block was
	// returned to the pool.
	reclaim func() bool

	// gcCursor is the per-victim page cursor the collector's checkpoint
	// resumes at.
	gcCursor int
}

// SetReclaim installs the cross-region reclaim hook.
func (s *Store) SetReclaim(fn func() bool) { s.reclaim = fn }

// SetColdClassifier installs the longevity hook: host writes of pages fn
// reports cold land on a dedicated append stripe, segregating long-lived
// data into blocks hot rewrites never churn. Call before any I/O; nil
// (the default) keeps the legacy two-stripe layout.
func (s *Store) SetColdClassifier(fn func(lpn int64) bool) {
	s.coldFn = fn
	if fn != nil {
		s.EnableCold()
	}
}

// New builds a store over logicalPages pages. reserve is the free-pool
// floor below which host allocations trigger GC; maxBlocks caps how many
// blocks the role may hold (0 = no cap). The version tracker must cover
// logicalPages*pageSectors sectors.
func New(dev *nand.Device, man *ftl.Manager, ver *ftl.Versions, stats *ftl.Stats, role ftl.Role, logicalPages int64, reserve, maxBlocks int) (*Store, error) {
	g := dev.Geometry()
	if g.SubpagesPerPage > 64 {
		return nil, fmt.Errorf("fullpage: %d subpages per page exceeds the 64-bit sector mask", g.SubpagesPerPage)
	}
	if logicalPages <= 0 {
		return nil, fmt.Errorf("fullpage: logicalPages = %d", logicalPages)
	}
	if ver.Size() < logicalPages*int64(g.SubpagesPerPage) {
		return nil, fmt.Errorf("fullpage: version tracker covers %d sectors, need %d", ver.Size(), logicalPages*int64(g.SubpagesPerPage))
	}
	hostWidth := g.Chips()
	// The GC stripe allocates blocks without running GC first (that would
	// recurse), so its width must stay within the reserve that guarantees
	// those allocations succeed.
	gcWidth := g.Chips()
	if cap := reserve - 4; gcWidth > cap {
		gcWidth = cap
	}
	if gcWidth < 1 {
		gcWidth = 1
	}
	if maxBlocks > 0 {
		// Keep open blocks well under the quota so GC always has full
		// blocks to victimize.
		if cap := maxBlocks / 4; hostWidth > cap {
			hostWidth = cap
		}
		if cap := maxBlocks / 4; gcWidth > cap {
			gcWidth = cap
		}
	}
	s := &Store{
		dev:       dev,
		man:       man,
		ver:       ver,
		stats:     stats,
		role:      role,
		table:     mapping.NewCoarseTable(logicalPages),
		rmap:      make([]int64, g.TotalPages()),
		masks:     make([]uint64, logicalPages),
		pageSecs:  g.SubpagesPerPage,
		maxBlocks: maxBlocks,
	}
	for i := range s.rmap {
		s.rmap[i] = mapping.None
	}
	s.Allocator = ftl.NewAllocator(dev, man, stats, role, ftl.TagFull, g.PagesPerBlock, reserve, hostWidth, gcWidth, s.ensureCapacity, s.beginGC, s.workGC)
	return s, nil
}

// LogicalPages returns the store's logical page count.
func (s *Store) LogicalPages() int64 { return s.table.Size() }

// MappingBytes returns the coarse table footprint plus the per-page masks.
func (s *Store) MappingBytes() int64 { return s.table.MemoryBytes() + int64(len(s.masks))*8 }

// fullMask is the bitmask with one bit per sector of a page.
func (s *Store) fullMask() uint64 { return (uint64(1) << s.pageSecs) - 1 }

// Mask returns the live-sector bitmask of a logical page.
func (s *Store) Mask(lpn int64) uint64 { return s.masks[lpn] }

// Mapped reports whether lpn currently has a physical page.
func (s *Store) Mapped(lpn int64) bool { return s.table.Lookup(lpn) != mapping.None }

// ChipOf returns the chip currently holding logical page lpn, or -1 when
// lpn is out of range or unmapped. It is the store's half of the host
// scheduler's read-routing probe and must stay side-effect free.
func (s *Store) ChipOf(lpn int64) int {
	if lpn < 0 || lpn >= s.table.Size() {
		return -1
	}
	ppn := s.table.Lookup(lpn)
	if ppn == mapping.None {
		return -1
	}
	g := s.dev.Geometry()
	return g.ChipOf(g.BlockOfPage(nand.PageID(ppn)))
}

// ensureCapacity is the store's refill policy, run before a host or cold
// append point opens a block: collect until the free pool is above the
// allocator's floor and the role quota has slack, trying the reclaim hook
// first, then pay the write tax. With a budgeted collector the floor sits
// below the reserve, so bounded steps (the write tax and background ticks)
// repay the debt and whole-victim drains happen only at the hard floor.
func (s *Store) ensureCapacity() error {
	floor := s.Floor()
	for s.man.FreeCount() <= floor || (s.maxBlocks > 0 && s.Held() >= s.maxBlocks) {
		if s.reclaim != nil && s.man.FreeCount() <= floor && s.reclaim() {
			continue
		}
		if err := s.CollectOnce(); err != nil {
			return err
		}
	}
	return s.Pay()
}

// programPage writes the live sectors of lpn (per its mask) to a fresh
// physical page and updates the mapping. merged supplies stamps for slots
// recovered from the old copy during an RMW; nil means all live slots take
// their current host version.
func (s *Store) programPage(lpn int64, forGC bool) error {
	g := s.dev.Geometry()
	stamps := s.Stamps()
	defer s.PutStamps(stamps)
	mask := s.masks[lpn]
	for slot := 0; slot < s.pageSecs; slot++ {
		if mask&(1<<slot) == 0 {
			stamps[slot] = nand.Padding
			continue
		}
		lsn := lpn*int64(s.pageSecs) + int64(slot)
		stamps[slot] = nand.Stamp{LSN: lsn, Version: s.ver.Current(lsn)}
	}
	p, err := s.Program(stamps, forGC, !forGC && s.coldFn != nil && s.coldFn(lpn))
	if err != nil {
		return err
	}
	old := s.table.Update(lpn, int64(p))
	s.rmap[p] = lpn
	s.man.AddValid(g.BlockOfPage(p), 1)
	if old != mapping.None {
		s.man.AddValid(g.BlockOfPage(nand.PageID(old)), -1)
	}
	return nil
}

// WriteSectors services a host (or eviction) write of the given sector
// slots within lpn. The caller must already have bumped the versions of
// the written sectors. When the write does not cover every live sector of
// the page and an old copy exists, the old page is read first — the
// read-modify-write the paper blames for the CGM scheme's losses.
// attrSmallBytes is added to the small-write flash attribution (the
// caller decides the accounting; see Stats.SmallFlashBytes).
func (s *Store) WriteSectors(lpn int64, slots []int, attrSmallBytes int64) error {
	if len(slots) == 0 {
		return fmt.Errorf("fullpage: empty write to lpn %d", lpn)
	}
	var newMask uint64
	for _, slot := range slots {
		if slot < 0 || slot >= s.pageSecs {
			return fmt.Errorf("fullpage: slot %d out of range", slot)
		}
		newMask |= 1 << slot
	}
	old := s.table.Lookup(lpn)
	oldLive := s.masks[lpn] &^ newMask
	if old != mapping.None && oldLive != 0 {
		// RMW: recover the sectors this write does not replace.
		_, errs, err := s.dev.ReadPage(nand.PageID(old))
		if err != nil {
			return err
		}
		for slot := 0; slot < s.pageSecs; slot++ {
			if oldLive&(1<<slot) != 0 && errs[slot] != nil {
				return fmt.Errorf("fullpage: RMW lost sector %d of lpn %d: %w", slot, lpn, errs[slot])
			}
		}
		s.stats.RMWOps++
	}
	s.masks[lpn] |= newMask
	s.stats.SmallFlashBytes += attrSmallBytes
	return s.programPage(lpn, false)
}

// ReadSectors services a host read of the given sector slots within lpn.
// Unmapped pages and dead slots read as zeroes without touching flash;
// mapped pages cost one page read, and every returned stamp is verified
// against the host version (integrity check).
func (s *Store) ReadSectors(lpn int64, slots []int) error {
	old := s.table.Lookup(lpn)
	if old == mapping.None {
		return nil
	}
	live := s.masks[lpn]
	any := false
	for _, slot := range slots {
		if live&(1<<slot) != 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	stamps, errs, err := s.dev.ReadPage(nand.PageID(old))
	if err != nil {
		return err
	}
	for _, slot := range slots {
		if live&(1<<slot) == 0 {
			continue
		}
		if errs[slot] != nil {
			return fmt.Errorf("fullpage: read lpn %d slot %d: %w", lpn, slot, errs[slot])
		}
		lsn := lpn*int64(s.pageSecs) + int64(slot)
		want := nand.Stamp{LSN: lsn, Version: s.ver.Current(lsn)}
		if stamps[slot] != want {
			return fmt.Errorf("fullpage: integrity violation at lsn %d: got %v, want %v", lsn, stamps[slot], want)
		}
	}
	return nil
}

// TrimSectors drops the given sector slots of lpn. When no live sector
// remains the mapping is released.
func (s *Store) TrimSectors(lpn int64, slots []int) {
	for _, slot := range slots {
		s.masks[lpn] &^= 1 << slot
	}
	if s.masks[lpn] == 0 {
		if old := s.table.Invalidate(lpn); old != mapping.None {
			s.man.AddValid(s.dev.Geometry().BlockOfPage(nand.PageID(old)), -1)
		}
	}
}

// beginGC starts a victim: one invocation per victim, cursor reset. The
// collector decides which block to drain and when to preempt; beginGC and
// workGC do the page moves.
func (s *Store) beginGC(b nand.BlockID) {
	s.stats.GCInvocations++
	s.gcCursor = 0
}

// workGC relocates the next live page of the victim. Stale pages are
// skipped within one call (they cost no device work), so the step budget
// counts actual relocations.
func (s *Store) workGC(victim nand.BlockID) (int, bool, error) {
	g := s.dev.Geometry()
	for {
		if s.gcCursor >= g.PagesPerBlock || s.man.Valid(victim) == 0 {
			return 0, true, nil
		}
		p := g.PageOf(victim, s.gcCursor)
		s.gcCursor++
		lpn := s.rmap[p]
		if lpn == mapping.None || s.table.Lookup(lpn) != int64(p) {
			continue // stale copy
		}
		// Relocate: read the old page, then rewrite the live sectors.
		_, errs, err := s.dev.ReadPage(p)
		if err != nil {
			return 0, false, err
		}
		for slot := 0; slot < s.pageSecs; slot++ {
			if s.masks[lpn]&(1<<slot) != 0 && errs[slot] != nil {
				return 0, false, fmt.Errorf("fullpage: GC lost sector %d of lpn %d: %w", slot, lpn, errs[slot])
			}
		}
		if err := s.programPage(lpn, true); err != nil {
			return 0, false, err
		}
		// Attribute relocation of small-origin sectors to the request WAF.
		for slot := 0; slot < s.pageSecs; slot++ {
			if s.masks[lpn]&(1<<slot) == 0 {
				continue
			}
			lsn := lpn*int64(s.pageSecs) + int64(slot)
			s.stats.GCMovedSectors++
			if s.ver.SmallOrigin(lsn) {
				s.stats.SmallFlashBytes += int64(g.SubpageBytes)
			}
		}
		done := s.gcCursor >= g.PagesPerBlock || s.man.Valid(victim) == 0
		return 1, done, nil
	}
}

// RecoverSummary reports the store-level half of a mount.
type RecoverSummary struct {
	BlocksAdopted int
	LiveSectors   int64
	Stale         int64
	MaxSeq        uint64
}

// Recover rebuilds the store's mapping from scanned blocks, which the
// owning FTL has already dispatched to this region by OOB tag. Duplicate
// LPNs resolve to the page with the highest program sequence number; every
// observed version re-seeds the tracker so post-mount writes outrun all
// on-flash copies. superseded, when non-nil, reports that a copy of lsn
// newer than seq lives outside this store (subFTL's subpage region) and
// the slot must not be adopted here. Every scanned block is adopted in the
// full state — valid-zero blocks become immediate GC victims, so
// pre-crash garbage self-heals through the normal erase path.
func (s *Store) Recover(blocks []ftl.ScannedBlock, superseded func(lsn int64, seq uint64) bool) (RecoverSummary, error) {
	g := s.dev.Geometry()
	type winner struct {
		ppn  int64
		seq  uint64
		mask uint64
		vers []uint32
	}
	win := make(map[int64]winner)
	var sum RecoverSummary
	for _, blk := range blocks {
		if blk.MaxSeq > sum.MaxSeq {
			sum.MaxSeq = blk.MaxSeq
		}
		for pi, slots := range blk.Pages {
			p := g.PageOf(blk.Block, pi)
			lpn := int64(-1)
			var seq, mask uint64
			vers := make([]uint32, s.pageSecs)
			for slot, sl := range slots {
				if sl.State != nand.OOBValid || sl.OOB.Stamp.IsPadding() {
					continue
				}
				lsn := sl.OOB.Stamp.LSN
				if lsn < 0 || lsn >= s.ver.Size() || int(lsn%int64(s.pageSecs)) != slot {
					continue // foreign or pre-FTL test data; never adopt
				}
				if superseded != nil && superseded(lsn, sl.OOB.Seq) {
					sum.Stale++
					continue
				}
				slotLPN := lsn / int64(s.pageSecs)
				if lpn >= 0 && slotLPN != lpn {
					continue // slots of one page always share an LPN
				}
				lpn = slotLPN
				if sl.OOB.Seq > seq {
					seq = sl.OOB.Seq
				}
				mask |= 1 << slot
				vers[slot] = sl.OOB.Stamp.Version
			}
			if lpn < 0 || mask == 0 {
				continue
			}
			if w, ok := win[lpn]; !ok || seq > w.seq {
				if ok {
					sum.Stale += int64(bits.OnesCount64(w.mask))
				}
				win[lpn] = winner{ppn: int64(p), seq: seq, mask: mask, vers: vers}
			} else {
				sum.Stale += int64(bits.OnesCount64(mask))
			}
		}
	}
	for lpn, w := range win {
		s.table.Update(lpn, w.ppn)
		s.rmap[w.ppn] = lpn
		s.masks[lpn] = w.mask
		sum.LiveSectors += int64(bits.OnesCount64(w.mask))
		// Only the winning copy re-seeds the version tracker: a stale copy
		// can out-version the winner (trim resets the counter), and the read
		// path verifies stamps against ver.Current.
		for slot := 0; slot < s.pageSecs; slot++ {
			if w.mask&(1<<slot) != 0 {
				s.ver.Restore(lpn*int64(s.pageSecs)+int64(slot), w.vers[slot])
			}
		}
	}
	perBlock := make(map[nand.BlockID]int)
	for _, w := range win {
		perBlock[g.BlockOfPage(nand.PageID(w.ppn))]++
	}
	for _, blk := range blocks {
		if err := s.Adopt(blk.Block, perBlock[blk.Block]); err != nil {
			return sum, err
		}
		sum.BlocksAdopted++
	}
	return sum, nil
}

// Check verifies the store's internal invariants.
func (s *Store) Check() error {
	g := s.dev.Geometry()
	perBlock := make(map[nand.BlockID]int)
	mapped := 0
	for lpn := int64(0); lpn < s.table.Size(); lpn++ {
		ppn := s.table.Lookup(lpn)
		if ppn == mapping.None {
			if s.masks[lpn] != 0 {
				return fmt.Errorf("fullpage: lpn %d has live mask %b but no mapping", lpn, s.masks[lpn])
			}
			continue
		}
		mapped++
		if s.masks[lpn] == 0 {
			return fmt.Errorf("fullpage: lpn %d mapped with empty mask", lpn)
		}
		if s.rmap[ppn] != lpn {
			return fmt.Errorf("fullpage: rmap[%d] = %d, want %d", ppn, s.rmap[ppn], lpn)
		}
		perBlock[g.BlockOfPage(nand.PageID(ppn))]++
	}
	if mapped != s.table.Mapped() {
		return fmt.Errorf("fullpage: table reports %d mapped, found %d", s.table.Mapped(), mapped)
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if s.man.State(id) == ftl.StateFree || s.man.Role(id) != s.role {
			if perBlock[id] != 0 {
				return fmt.Errorf("fullpage: block %d holds %d valid pages but is not a live %v block", id, perBlock[id], s.role)
			}
			continue
		}
		if got, want := s.man.Valid(id), perBlock[id]; got != want {
			return fmt.Errorf("fullpage: block %d valid = %d, want %d", id, got, want)
		}
	}
	return nil
}
