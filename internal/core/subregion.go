package core

import (
	"errors"
	"fmt"
	"math/bits"

	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/mapping"
	"espftl/internal/nand"
)

// initSubBlock prepares bookkeeping for a block entering the subpage
// region at round 0.
func (f *FTL) initSubBlock(b nand.BlockID) {
	g := f.dev.Geometry()
	f.meta[b] = subBlock{
		round:   0,
		cursor:  0,
		nextIdx: make([]uint8, g.PagesPerBlock),
		inUse:   true,
	}
	f.subBlocks++
}

// isActive reports whether id is one of the stripe's open write blocks.
func (f *FTL) isActive(id nand.BlockID) bool {
	for i, b := range f.actives {
		if f.live.has(i) && b == id {
			return true
		}
	}
	return false
}

// slotSet is a bitset over the write stripe's slots.
type slotSet []uint64

func newSlotSet(n int) slotSet { return make(slotSet, (n+63)/64) }

func (s slotSet) has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }
func (s slotSet) set(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s slotSet) clear(i int)    { s[i>>6] &^= 1 << uint(i&63) }

// next returns the lowest slot in [lo, hi) whose bit equals want, or -1.
func (s slotSet) next(lo, hi int, want bool) int {
	for lo < hi {
		w := s[lo>>6]
		if !want {
			w = ^w
		}
		if w >>= uint(lo & 63); w != 0 {
			if i := lo + bits.TrailingZeros64(w); i < hi {
				return i
			}
			return -1
		}
		lo = (lo | 63) + 1
	}
	return -1
}

// stale reports whether the flash copy at spn no longer carries lsn's
// newest version — a fresher copy is staged in the write buffer or is the
// in-flight write that triggered this relocation. A stale copy must NOT be
// dropped: the newer data lives only in controller RAM, so until it reaches
// flash this copy is the sector's newest durable incarnation — destroying
// its cells (the completed pass or the victim erase that follows every
// relocation) would turn a power cut into a lost acknowledged write.
// Relocation therefore evicts stale copies to the full-page region. Like
// any rewrite, the eviction stamps the sector's current version — the same
// accepted imprecision as full-page GC over buffered data — so the sector
// keeps an on-flash incarnation at an acknowledged version until the
// buffer's own flush path supersedes it.
func (f *FTL) stale(lsn, spn int64) bool {
	return f.verAt[spn] != f.ver.Current(lsn)
}

// liveAt returns the live logical sector stored in slot sub of page p, if
// any.
func (f *FTL) liveAt(p nand.PageID, sub int) (lsn, spn int64, ok bool) {
	g := f.dev.Geometry()
	cand := int64(g.SubpageOf(p, sub))
	l := f.rmapSub[cand]
	if l == mapping.None {
		return 0, 0, false
	}
	if got, live := f.hash.Get(l); live && got == cand {
		return l, cand, true
	}
	return 0, 0, false
}

// survivor is a live subpage encountered during relocation.
type survivor struct {
	lsn, spn int64
	slot     int
}

// survivorsIn returns the live subpages of page p in slots [0, limit).
// Stale copies are survivors too (see stale): until their volatile
// successor lands on flash they carry the sector's durable state. The
// result is FTL-owned scratch, valid until the next survivorsIn call;
// both callers consume it before anything downstream can re-enter.
func (f *FTL) survivorsIn(p nand.PageID, limit int) []survivor {
	out := f.survivorsBuf[:0]
	for s := 0; s < limit; s++ {
		lsn, spn, ok := f.liveAt(p, s)
		if !ok {
			continue
		}
		out = append(out, survivor{lsn: lsn, spn: spn, slot: s})
	}
	f.survivorsBuf = out
	return out
}

// nextEligible returns the next page of the writing policy that can take
// a program pass at its block's current round: rotate across the stripe of
// open blocks (chip parallelism); refill exhausted stripe slots with a
// fresh block while the region quota allows, else by advancing the round
// of the best candidate block, and finally by garbage-collecting.
func (f *FTL) nextEligible() (nand.PageID, *subBlock, int, error) {
	g := f.dev.Geometry()
	n := len(f.actives)
	maxAttempts := 2*f.subQuota*f.pageSecs + 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// Visit each live slot once in rotation order, rr first: the slots
		// [rr, n), then [0, rr). Dead slots are skipped without a visit. A
		// full rotation that finds nothing leaves rr where it started.
		start := f.rr
		for pass, lo, hi := 0, start, n; pass < 2; pass, lo, hi = pass+1, 0, start {
			for i := f.live.next(lo, hi, true); i >= 0; i = f.live.next(i+1, hi, true) {
				mb := &f.meta[f.actives[i]]
				for mb.cursor < g.PagesPerBlock {
					pi := mb.cursor
					if int(mb.nextIdx[pi]) == mb.round {
						f.rr = i + 1
						if f.rr == n {
							f.rr = 0
						}
						return g.PageOf(f.actives[i], pi), mb, pi, nil
					}
					mb.cursor++
				}
				// This stripe slot's block is exhausted at its round.
				f.live.clear(i)
				if mb.round == f.pageSecs-1 {
					f.man.MarkFull(f.actives[i])
				}
			}
		}
		// Refill one empty stripe slot, rotating the starting point so
		// refill pressure (and the chip affinity that follows it) spreads
		// across the stripe instead of piling onto slot 0.
		slot := f.live.next(start, n, false)
		if slot < 0 {
			slot = f.live.next(0, start, false)
		}
		if slot < 0 {
			continue
		}
		if f.subBlocks < f.subQuota {
			if f.man.FreeCount() <= f.cfg.GCReserveBlocks && !f.reclaimEmptySubBlock() {
				// The full-page region holds the spare space; make it
				// give a block back so the subpage region can grow to
				// its quota.
				if err := f.full.CollectOnce(); err != nil {
					return 0, nil, 0, err
				}
			}
			if f.man.FreeCount() > f.cfg.GCReserveBlocks {
				chip := slot * g.Chips() / len(f.actives)
				if b, ok := f.man.AllocOnChip(ftl.RoleSub, chip); ok {
					f.initSubBlock(b)
					f.actives[slot] = b
					f.live.set(slot)
					continue
				}
			}
		}
		if b, ok := f.pickAdvance(slot * g.Chips() / len(f.actives)); ok {
			f.advanceRound(b)
			f.actives[slot] = b
			f.live.set(slot)
			continue
		}
		if err := f.collectSubOnce(); err != nil {
			return 0, nil, 0, err
		}
	}
	return 0, nil, 0, fmt.Errorf("core: subpage slot allocation made no progress: %s", f.debugState())
}

// debugState renders the subpage region's state for policy-bug reports.
func (f *FTL) debugState() string {
	g := f.dev.Geometry()
	s := fmt.Sprintf("subBlocks=%d quota=%d free=%d reserve=%d stripe=%d gcDestSet=%v;",
		f.subBlocks, f.subQuota, f.man.FreeCount(), f.cfg.GCReserveBlocks, len(f.actives), f.gcDestSet)
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if f.meta[b].inUse {
			s += fmt.Sprintf(" blk%d[st=%d rd=%d cur=%d val=%d]", b, f.man.State(id), f.meta[b].round, f.meta[b].cursor, f.man.Valid(id))
		}
	}
	return s
}

// pickAdvance selects the round-advance candidate: the non-terminal
// subpage block with the fewest valid subpages ("a block with only
// obsolete subpages ... if subFTL cannot find [one], a block with the
// smallest number of valid subpages"). Blocks with more valid subpages
// than pages are excluded: advancing one would be mostly relocation for
// little yield, and GC — which actually removes data from the region —
// handles that case.
func (f *FTL) pickAdvance(preferChip int) (nand.BlockID, bool) {
	g := f.dev.Geometry()
	best := nand.BlockID(-1)
	bestValid := int(^uint(0) >> 1)
	bestOnChip := nand.BlockID(-1)
	bestOnChipValid := int(^uint(0) >> 1)
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if !f.meta[b].inUse || f.man.State(id) != ftl.StateOpen {
			continue
		}
		if f.gcDestSet && id == f.gcDest {
			continue
		}
		if f.isActive(id) || f.subCol.InFlight(id) {
			continue
		}
		if f.meta[b].round >= f.pageSecs-1 {
			continue
		}
		v := f.man.Valid(id)
		if v >= g.PagesPerBlock {
			continue
		}
		if v < bestValid {
			best, bestValid = id, v
		}
		if g.ChipOf(id) == preferChip && v < bestOnChipValid {
			bestOnChip, bestOnChipValid = id, v
		}
	}
	// Keep the stripe slot on its chip when a reasonable candidate exists
	// there (within 2 valid units of the global best): the stripe is what
	// spreads program load over every channel and way.
	if bestOnChip >= 0 && bestOnChipValid <= bestValid+8 {
		return bestOnChip, true
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// pickOpenVictim returns the open (non-active, non-destination) subpage
// block with the fewest valid subpages, for the GC fallback when no block
// is terminally exhausted.
func (f *FTL) pickOpenVictim() (nand.BlockID, bool) {
	g := f.dev.Geometry()
	best := nand.BlockID(-1)
	bestValid := int(^uint(0) >> 1)
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if !f.meta[b].inUse || f.man.State(id) != ftl.StateOpen {
			continue
		}
		if (f.gcDestSet && id == f.gcDest) || f.isActive(id) || f.subCol.InFlight(id) {
			continue
		}
		if v := f.man.Valid(id); v < bestValid {
			best, bestValid = id, v
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// advanceRound moves block b to its next subpage round. Relocation of
// survivors is deferred to program time: a page's survivors are shifted
// into the same pass that programs its next slots (one page read plus one
// combined pass — the paper's Fig. 7(c) movement, batched), so advancing
// itself costs no I/O.
func (f *FTL) advanceRound(b nand.BlockID) {
	mb := &f.meta[b]
	mb.round++
	mb.cursor = 0
	f.stats.RoundAdvances++
}

// readPageVerified reads a whole page once and returns the stamps,
// verifying each expected survivor against its recorded version. The
// callers hold the stamps across further device operations (evictions,
// the combined pass), so the device's borrowed read scratch is copied
// out — into FTL-owned scratch of our own, valid until the next
// readPageVerified call (the relocation paths never nest one inside
// another's hold window).
func (f *FTL) readPageVerified(p nand.PageID, survs []survivor) ([]nand.Stamp, error) {
	stamps, errs, err := f.dev.ReadPage(p)
	if err != nil {
		return nil, err
	}
	for _, sv := range survs {
		if errs[sv.slot] != nil {
			return nil, fmt.Errorf("core: relocating lsn %d: %w", sv.lsn, errs[sv.slot])
		}
		want := nand.Stamp{LSN: sv.lsn, Version: f.verAt[sv.spn]}
		if stamps[sv.slot] != want {
			return nil, fmt.Errorf("core: relocation integrity violation at lsn %d: got %v, want %v", sv.lsn, stamps[sv.slot], want)
		}
	}
	if cap(f.pageStampsBuf) < len(stamps) {
		f.pageStampsBuf = make([]nand.Stamp, len(stamps))
	}
	out := f.pageStampsBuf[:len(stamps)]
	copy(out, stamps)
	return out, nil
}

// subPass programs one ESP pass on the next eligible page: shifting the
// page's hot survivors into the pass, evicting its cold survivors to the
// full-page region, and filling the remaining slots with up to len(lsns)
// new sectors. It returns how many new sectors it consumed (possibly 0
// for a pure-relocation pass).
func (f *FTL) subPass(lsns []int64, attrPerSector int64) (int, error) {
	g := f.dev.Geometry()
	p, mb, pi, err := f.nextEligible()
	if err != nil {
		return 0, err
	}
	r := mb.round
	survs := f.survivorsIn(p, r)

	// Hot/cold split: never-updated survivors are evicted (the paper's
	// §4.2 heuristic — a hot sector is rewritten many times over before
	// its block comes around, so an un-updated survivor is genuinely
	// cold); updated survivors shift into this pass. Stale survivors are
	// always evicted, hot or not: they must keep a durable incarnation
	// (see stale), but shifting them would pin soon-dead copies in the
	// region and let relocation rotate them forever.
	shift := f.shiftBuf[:0]
	evict := f.evictSvBuf[:0]
	for _, sv := range survs {
		if !f.stale(sv.lsn, sv.spn) && f.updated[sv.lsn] && !f.cfg.DisableHotColdGC {
			shift = append(shift, sv)
		} else {
			evict = append(evict, sv)
		}
	}
	f.shiftBuf, f.evictSvBuf = shift, evict
	var pageStamps []nand.Stamp
	if len(survs) > 0 {
		pageStamps, err = f.readPageVerified(p, survs)
		if err != nil {
			return 0, err
		}
	}
	for _, sv := range evict {
		if err := f.evictSector(sv.lsn); err != nil {
			return 0, err
		}
		f.stats.Evictions++
	}
	// More hot survivors than remaining slots (an earlier multi-subpage
	// pass left several live): the excess relocates to the GC destination
	// block instead of shifting in place.
	if over := r + len(shift) - f.pageSecs; over > 0 {
		if err := f.gcMoveGroup(shift[len(shift)-over:], pageStamps); err != nil {
			return 0, err
		}
		shift = shift[:len(shift)-over]
	}

	capacity := f.pageSecs - r - len(shift)
	n := len(lsns)
	if n > capacity {
		n = capacity
	}
	stamps := f.passStampsBuf[:0]
	for _, sv := range shift {
		stamps = append(stamps, pageStamps[sv.slot])
	}
	for _, lsn := range lsns[:n] {
		stamps = append(stamps, nand.Stamp{LSN: lsn, Version: f.ver.Current(lsn)})
	}
	f.passStampsBuf = stamps
	if len(stamps) == 0 {
		// Nothing to program on this page (its survivors were all
		// evicted, or the caller had no sectors); consume it so the
		// policy moves on.
		mb.cursor++
		return n, nil
	}
	for attempt := 0; ; attempt++ {
		_, err := f.dev.ProgramSubpageRunTag(p, r, stamps, ftl.TagSub)
		if err == nil {
			break
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= ftl.MaxProgramReplays {
			return 0, err
		}
		// The pass aborted: its fresh copies and the shifted survivors'
		// old cells are gone, but every payload is still in RAM (stamps).
		// Retire the block, pull it out of the stripe, and replay the
		// whole pass at round 0 of a fresh block.
		p, mb, pi, r, err = f.relocateFailedPass(p)
		if err != nil {
			return 0, err
		}
	}
	// Remap the shifted survivors. After a replay on a fresh block the
	// survivors changed blocks, so their valid counts move too.
	newBlk := g.BlockOfPage(p)
	for i, sv := range shift {
		newSpn := int64(g.SubpageOf(p, r+i))
		if oldBlk := g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(sv.spn))); oldBlk != newBlk {
			f.man.AddValid(oldBlk, -1)
			f.man.AddValid(newBlk, 1)
		}
		f.rmapSub[sv.spn] = mapping.None
		f.rmapSub[newSpn] = sv.lsn
		if err := f.hash.Put(sv.lsn, newSpn); err != nil {
			return 0, fmt.Errorf("core: shifting lsn %d: %w", sv.lsn, err)
		}
		f.verAt[newSpn] = pageStamps[sv.slot].Version
		f.writtenAt[newSpn] = f.dev.Clock().Now()
		f.stats.SubShifts++
		if f.ver.SmallOrigin(sv.lsn) {
			f.stats.SmallFlashBytes += int64(g.SubpageBytes)
		}
	}
	// Map the new sectors.
	for i, lsn := range lsns[:n] {
		spn := int64(g.SubpageOf(p, r+len(shift)+i))
		if err := f.subPlace(lsn, spn); err != nil {
			return 0, err
		}
		f.stats.SmallFlashBytes += attrPerSector
	}
	mb.nextIdx[pi] = uint8(r + len(stamps))
	mb.cursor++
	return n, nil
}

// relocateFailedPass recovers from an injected program failure on page p:
// the block is retired (grown bad), its stripe slot freed, and a fresh
// subpage-region block allocated and installed in its place. It returns
// the replay target — page 0 of the fresh block at round 0.
func (f *FTL) relocateFailedPass(p nand.PageID) (nand.PageID, *subBlock, int, int, error) {
	g := f.dev.Geometry()
	fb := g.BlockOfPage(p)
	slot := -1
	for i := range f.actives {
		if f.live.has(i) && f.actives[i] == fb {
			slot = i
			f.live.clear(i)
		}
	}
	if f.gcDestSet && fb == f.gcDest {
		f.gcDestSet = false
	}
	f.man.Retire(fb)
	f.stats.ProgramFailMoves++
	chip := 0
	if slot >= 0 {
		chip = slot * g.Chips() / len(f.actives)
	}
	nb, err := f.allocSubBlock(chip, fb)
	if err != nil {
		return 0, nil, 0, 0, err
	}
	f.initSubBlock(nb)
	if slot >= 0 {
		f.actives[slot] = nb
		f.live.set(slot)
	}
	return g.PageOf(nb, 0), &f.meta[nb], 0, 0, nil
}

// allocSubBlock allocates a fresh subpage-region block for failure
// recovery, reclaiming or collecting from the full-page region when the
// pool is at its reserve. The region quota is deliberately not consulted:
// the retired block still counts against it until GC drains it, and
// recovery must not deadlock on that transient. failed is the retired
// block whose pass is being replayed.
func (f *FTL) allocSubBlock(chip int, failed nand.BlockID) (nand.BlockID, error) {
	for guard := 0; guard < 64; guard++ {
		if f.man.FreeCount() <= f.cfg.GCReserveBlocks && !f.reclaimEmptySubBlock() {
			if err := f.full.CollectOnce(); err != nil {
				return 0, err
			}
		}
		if f.man.FreeCount() > f.cfg.GCReserveBlocks {
			if b, ok := f.man.AllocOnChip(ftl.RoleSub, chip); ok {
				return b, nil
			}
		}
	}
	// The full-page region cannot lift the pool above its reserve: collect
	// one subpage-region block instead. The collection runs inside the
	// failed pass's hold window, so it must neither pick the failed block
	// (which still maps the survivors the replay carries in RAM) nor reuse
	// the pass's page-stamp scratch. If that does not lift the pool either,
	// the spare capacity is gone: degrade to read-only service.
	held := f.pageStampsBuf
	f.pageStampsBuf = nil
	err := f.subCol.Collect(&subTarget{f: f, fb: true, keep: &failed})
	f.pageStampsBuf = held
	if err != nil && !errors.Is(err, gc.ErrNoVictim) {
		return 0, err
	}
	if f.man.FreeCount() > f.cfg.GCReserveBlocks {
		if b, ok := f.man.AllocOnChip(ftl.RoleSub, chip); ok {
			return b, nil
		}
	}
	return 0, fmt.Errorf("core: cannot allocate a replacement subpage block: %s: %w", f.debugState(), ftl.ErrReadOnly)
}

// subWriteRun writes the given sectors into the subpage region using as
// few erase-free program passes as possible (an SBPI pass can carry
// several subpages at once). attrPerSector is the per-sector small-write
// flash attribution.
func (f *FTL) subWriteRun(lsns []int64, attrPerSector int64) error {
	// Accrue write-tax debt: at quota every subpage written eventually
	// costs region GC one visit. The cap bounds post-idle step bursts.
	if f.gcDebt += len(lsns); f.gcDebt > 4*f.cfg.GC.StepPages {
		f.gcDebt = 4 * f.cfg.GC.StepPages
	}
	guard := 2*f.subQuota*f.dev.Geometry().SubpagesPerBlock() + 64
	for len(lsns) > 0 {
		n, err := f.subPass(lsns, attrPerSector)
		if err != nil {
			return err
		}
		lsns = lsns[n:]
		if guard--; guard < 0 {
			return fmt.Errorf("core: subpage write made no progress: %s", f.debugState())
		}
	}
	return nil
}

// subPlace records the mapping updates shared by every new subpage
// program: invalidate the previous locations of lsn, map it to spn, and
// bump the valid count of spn's block.
func (f *FTL) subPlace(lsn, spn int64) error {
	g := f.dev.Geometry()
	if old, ok := f.hash.Get(lsn); ok {
		f.rmapSub[old] = mapping.None
		f.man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(old))), -1)
		f.updated[lsn] = true
	} else {
		f.updated[lsn] = false
	}
	f.dropFullCopy(lsn)
	if err := f.hash.Put(lsn, spn); err != nil {
		return fmt.Errorf("core: mapping lsn %d: %w", lsn, err)
	}
	f.rmapSub[spn] = lsn
	f.man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))), 1)
	f.verAt[spn] = f.ver.Current(lsn)
	f.writtenAt[spn] = f.dev.Clock().Now()
	return nil
}

// evictSector moves lsn's (already read and verified) subpage-region data
// into the full-page region: drop the region copy and rewrite the sector
// there, a read-modify-write on the receiving page.
func (f *FTL) evictSector(lsn int64) error {
	f.dropSubCopy(lsn)
	g := f.dev.Geometry()
	ps := int64(f.pageSecs)
	var attr int64
	if f.ver.SmallOrigin(lsn) {
		attr = int64(g.SubpageBytes)
	}
	f.slot1[0] = int(lsn % ps)
	return f.full.WriteSectors(lsn/ps, f.slot1[:], attr)
}

// evictToFull reads, verifies and evicts one subpage-region sector; used
// by the retention manager, which has not read the page yet.
func (f *FTL) evictToFull(lsn, spn int64) error {
	stamp, err := f.dev.ReadSubpage(nand.SubpageID(spn))
	if err != nil {
		return fmt.Errorf("core: evicting lsn %d: %w", lsn, err)
	}
	want := nand.Stamp{LSN: lsn, Version: f.verAt[spn]}
	if stamp != want {
		return fmt.Errorf("core: eviction integrity violation at lsn %d: got %v, want %v", lsn, stamp, want)
	}
	return f.evictSector(lsn)
}

// gcMoveGroup writes a victim page's hot survivors into the GC destination
// block as one pass.
func (f *FTL) gcMoveGroup(survs []survivor, pageStamps []nand.Stamp) error {
	g := f.dev.Geometry()
	if cap(f.gcStampsBuf) < len(survs) {
		f.gcStampsBuf = make([]nand.Stamp, len(survs))
	}
	stamps := f.gcStampsBuf[:len(survs)]
	for i, sv := range survs {
		stamps[i] = pageStamps[sv.slot]
	}
	var mb *subBlock
	var pi int
	var dp nand.PageID
	for attempt := 0; ; attempt++ {
		if f.gcDestSet && f.meta[f.gcDest].cursor >= g.PagesPerBlock {
			// Destination filled its round 0: it rejoins the region as a
			// normal (advance-capable) block.
			f.gcDestSet = false
		}
		if !f.gcDestSet {
			b, ok := f.man.Alloc(ftl.RoleSub)
			if !ok {
				return fmt.Errorf("core: no free block for subpage GC destination")
			}
			f.initSubBlock(b)
			f.gcDest, f.gcDestSet = b, true
		}
		mb = &f.meta[f.gcDest]
		pi = mb.cursor
		mb.cursor++
		dp = g.PageOf(f.gcDest, pi)
		_, err := f.dev.ProgramSubpageRunTag(dp, 0, stamps, ftl.TagSub)
		if err == nil {
			break
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= ftl.MaxProgramReplays {
			return err
		}
		// The source copies on the victim are untouched; retire the
		// destination (grown bad) and replay onto a fresh one.
		f.man.Retire(f.gcDest)
		f.gcDestSet = false
		f.stats.ProgramFailMoves++
	}
	mb.nextIdx[pi] = uint8(len(stamps))
	for i, sv := range survs {
		spn := int64(g.SubpageOf(dp, i))
		if err := f.subPlace(sv.lsn, spn); err != nil {
			return err
		}
		// Relocation preserves the on-flash stamp. For a stale survivor
		// (newest version still in the write buffer) that stamp is older
		// than the host version subPlace assumed, and the read path
		// verifies against what is physically there.
		f.verAt[spn] = stamps[i].Version
		// Demote: surviving one GC without a host refresh costs the hot
		// verdict, so even a region saturated with once-hot data
		// converges — the next encounter evicts anything the host has
		// not re-updated. Genuinely hot data is re-updated (restoring
		// the verdict) long before its next GC.
		f.updated[sv.lsn] = false
		f.stats.GCMovedSectors++
		if f.ver.SmallOrigin(sv.lsn) {
			f.stats.SmallFlashBytes += int64(g.SubpageBytes)
		}
	}
	return nil
}

// collectSubOnce performs one whole subpage-region GC collection (paper
// §4.2) through the region collector: take the terminally exhausted block
// with the fewest valid subpages (or, failing that, the fullest-free open
// block, sacrificing its remaining rounds); subpages that were updated at
// least once since entering the region are hot and move to the GC
// destination block, never-updated ones are cold and are evicted to the
// full-page region; then erase the victim. A background-preempted victim
// is resumed and finished first.
func (f *FTL) collectSubOnce() error {
	if err := f.subCol.Collect(&subTarget{f: f, fb: true}); err != nil {
		if errors.Is(err, gc.ErrNoVictim) {
			return fmt.Errorf("core: subpage GC has no victim (%d region blocks, %d free)", f.subBlocks, f.man.FreeCount())
		}
		return err
	}
	return nil
}

// subTarget adapts the subpage region to the collector's Target: one Work
// call relocates one victim page's survivors (the collector's page-scale
// work unit). fb enables the open-block fallback — foreground collection
// must reclaim something, background stepping must not sacrifice an open
// block's remaining rounds.
type subTarget struct {
	f  *FTL
	fb bool
	// keep, when non-nil, is a block the collection must not pick.
	keep *nand.BlockID
}

// View exposes the full (terminally exhausted) subpage-region blocks to
// the victim policy, excluding any in-flight victim.
func (t *subTarget) View() gc.View {
	f := t.f
	exclude := f.subCol.InFlight
	if t.keep != nil {
		exclude = func(b nand.BlockID) bool { return b == *t.keep || f.subCol.InFlight(b) }
	}
	return f.man.GCView(ftl.RoleSub, f.dev.Geometry().SubpagesPerBlock(), exclude)
}

// Fallback reclaims the fullest-free open block when no block is
// terminally exhausted (foreground only).
func (t *subTarget) Fallback() (nand.BlockID, bool) {
	if !t.fb {
		return 0, false
	}
	return t.f.pickOpenVictim()
}

// Begin checkpoints a fresh victim: reset the page cursor and take the
// pressure-valve verdict once, so preempted steps resume consistently.
// A victim with most slots still valid means the region is saturated with
// data the host is not invalidating fast enough; keeping it would make GC
// a pure rotation, so everything in such victims is evicted and the
// region always converges to its hot core.
func (t *subTarget) Begin(b nand.BlockID) {
	f := t.f
	f.stats.GCInvocations++
	f.gcPage = 0
	f.gcEvictAll = f.man.Valid(b) > f.dev.Geometry().SubpagesPerBlock()/2
}

// Work relocates the survivors of the victim's next occupied page. Pages
// with no survivors are skipped free of budget; the cursor advances only
// after a page fully relocates, so an error-side retry reprocesses the
// remaining survivors of the same page.
func (t *subTarget) Work(victim nand.BlockID) (int, bool, error) {
	f := t.f
	g := f.dev.Geometry()
	for f.gcPage < g.PagesPerBlock {
		p := g.PageOf(victim, f.gcPage)
		survs := f.survivorsIn(p, f.pageSecs)
		if len(survs) == 0 {
			f.gcPage++
			continue
		}
		pageStamps, err := f.readPageVerified(p, survs)
		if err != nil {
			return 0, false, err
		}
		hot := f.hotBuf[:0]
		for _, sv := range survs {
			// Stale survivors take the eviction path regardless of heat:
			// dropping them would destroy the sector's only durable
			// incarnation at the victim erase (see stale).
			if !f.stale(sv.lsn, sv.spn) && f.updated[sv.lsn] && !f.cfg.DisableHotColdGC && !f.gcEvictAll {
				hot = append(hot, sv)
				continue
			}
			if err := f.evictSector(sv.lsn); err != nil {
				return 0, false, err
			}
			f.stats.Evictions++
		}
		f.hotBuf = hot
		if len(hot) > 0 {
			if err := f.gcMoveGroup(hot, pageStamps); err != nil {
				return 0, false, err
			}
		}
		f.gcPage++
		return len(survs), f.gcPage >= g.PagesPerBlock, nil
	}
	return 0, true, nil
}

// Release erases the drained victim and returns it to the pool. Evictions
// route through the full-page region, whose capacity work may already have
// reclaimed this victim once it emptied.
func (t *subTarget) Release(victim nand.BlockID) error {
	f := t.f
	if f.man.State(victim) != ftl.StateFree {
		if err := f.man.Recycle(victim); err != nil {
			return err
		}
		f.meta[victim] = subBlock{}
		f.subBlocks--
	}
	return nil
}
