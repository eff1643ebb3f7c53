// Package core implements subFTL, the paper's ESP-aware flash translation
// layer (§4). subFTL divides flash into two dynamically assigned regions:
//
//   - a subpage region (20 % of blocks by default) written with erase-free
//     subpage programming — one valid subpage per physical page, pages
//     re-programmed round by round in sequential subpage order — and
//     mapped by a compact hash table;
//   - a full-page region managed exactly like a CGM FTL (coarse-grained
//     page mapping, read-modify-write for partial pages).
//
// Data placement is by flushed request length: pieces shorter than a full
// page go to the subpage region (so small writes never fragment a 16-KB
// page), full aligned pages go to the full-page region. The subpage
// region's GC separates hot from cold (subpages updated at least once stay,
// never-updated ones are evicted to the full-page region), and a retention
// manager evicts subpages older than 15 days, half the conservative
// one-month retention capability of ESP-written data.
package core

import (
	"errors"
	"fmt"
	"time"

	"espftl/internal/buffer"
	"espftl/internal/ftl"
	"espftl/internal/ftl/fullpage"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Config parameterizes subFTL.
type Config struct {
	// LogicalSectors is the exported logical space in sectors; it must be
	// a multiple of the page size in sectors.
	LogicalSectors int64
	// SubRegionFrac is the fraction of blocks assigned to the subpage
	// region (the paper uses 0.20).
	SubRegionFrac float64
	// GCReserveBlocks is the free-pool floor that triggers GC.
	GCReserveBlocks int
	// BufferSectors bounds the aligned write buffer (staged sectors).
	BufferSectors int
	// RetentionThreshold is the age at which the retention manager evicts
	// a subpage to the full-page region (paper: 15 days).
	RetentionThreshold time.Duration
	// ScrubInterval is how often the retention manager scans (paper
	// checks continuously; a daily scan is equivalent at these scales).
	ScrubInterval time.Duration
	// DisableHotColdGC turns off the hot/cold split in subpage-region GC:
	// every valid subpage is treated as cold and evicted to the full-page
	// region, so hot data loses its in-region residency. Used by the
	// ablation experiments to quantify the value of the paper's §4.2
	// separation heuristic.
	DisableHotColdGC bool
	// DisableRetention turns off the retention manager. Used by failure-
	// injection tests that demonstrate why it must exist.
	DisableRetention bool
	// GC selects the victim policy, step budget and background slack for
	// both regions' collectors. The zero value (greedy, whole-block, no
	// background) is the legacy behaviour.
	GC gc.Options
	// ErasePolicy, when non-nil, chooses the depth of every block erase
	// (adaptive erase; see internal/lifetime). Nil keeps the legacy
	// full-depth erases, bit-identical to a build without the subsystem.
	ErasePolicy lifetime.ErasePolicy
	// Lifetime, when true, enables longevity-aware placement: a per-page
	// update-interval predictor steers predicted-cold small writes away
	// from the subpage region (they would only churn through its GC and
	// retention eviction paths) and segregates predicted-cold full-page
	// programs onto a dedicated append stripe.
	Lifetime bool
}

// DefaultConfig fills in the paper's parameters for a given logical space.
func DefaultConfig(logicalSectors int64) Config {
	return Config{
		LogicalSectors:     logicalSectors,
		SubRegionFrac:      0.20,
		GCReserveBlocks:    4,
		BufferSectors:      256,
		RetentionThreshold: 15 * 24 * time.Hour,
		ScrubInterval:      24 * time.Hour,
	}
}

// subBlock is subFTL's per-block bookkeeping for subpage-region blocks.
type subBlock struct {
	// round is the subpage index currently being filled (0..N_sub-1).
	round int
	// cursor is the next page to consider at this round.
	cursor int
	// nextIdx is, per page, the next unprogrammed subpage index. A page
	// is eligible for a pass when nextIdx == round; multi-subpage passes
	// may leave it ahead of the round (invariant: round <= nextIdx <= N_sub).
	nextIdx []uint8
	// inUse marks the entry as belonging to a live subpage-region block.
	inUse bool
}

// FTL is the subFTL instance.
type FTL struct {
	dev   *nand.Device
	man   *ftl.Manager
	ver   *ftl.Versions
	stats ftl.Stats
	cfg   Config

	full *fullpage.Store // the CGM-managed full-page region

	// Subpage region state.
	hash      *mapping.HashTable // LSN -> SPN
	rmapSub   []int64            // SPN -> LSN
	verAt     []uint32           // SPN -> host version stored there
	writtenAt []sim.Time         // SPN -> program time (retention aging)
	updated   []bool             // LSN: overwritten since entering the region?
	meta      []subBlock         // per-block, indexed by BlockID
	subBlocks int                // blocks currently in the subpage region
	subQuota  int

	// actives is the stripe of open write blocks, one slot per chip (up
	// to a third of the region quota), rotated per write so consecutive
	// subpage programs land on different chips — the channel/way
	// parallelism the paper's §4.2 notes its implementation maximizes.
	// live marks the slots holding an open block; rr is the rotation
	// cursor, the slot the next write tries first.
	actives []nand.BlockID
	live    slotSet
	rr      int

	gcDest    nand.BlockID // persistent GC destination block (round 0)
	gcDestSet bool

	// subCol drives region GC incrementally; its in-flight victim is what
	// keeps reentrant reclaim (via evictions into the full-page region)
	// from recycling and re-allocating the block being drained mid-scan.
	subCol *gc.Collector
	// gcPage / gcEvictAll checkpoint the in-flight victim's scan position
	// and pressure-valve verdict across preempted collection steps.
	gcPage     int
	gcEvictAll bool
	gcSlack    int
	// gcDebt paces the incremental write tax's region pre-drain: subpages
	// written to the region since the last paced step (capped so an idle
	// stretch cannot bank an unbounded burst of collection).
	gcDebt int

	buf       *buffer.Aligned
	pageSecs  int
	lastScrub sim.Time

	// pred and policyName are the lifetime subsystem's hooks: the
	// longevity predictor steering small writes between the regions (nil
	// when Config.Lifetime is off) and the erase-depth policy label for
	// stats. steerBuf/steerSlots are the steering path's reusable
	// partition scratch.
	pred       *lifetime.Predictor
	policyName string
	steerBuf   []int64
	steerSlots []int

	// Reusable scratch for the steady-state I/O path, so host writes,
	// reads and trims allocate nothing. identSlots is the constant
	// identity slot list [0..pageSecs) shared by full-page writes (never
	// mutated, so nesting is irrelevant); lsnsBuf and partialBuf back
	// Write's and Trim's sector runs; fullSlotsBuf backs Read's per-page
	// slot grouping; slot1 serves single-slot full-region calls. The
	// callees consume each slice before anything can re-enter these
	// paths (GC relocation writes through its own scratch in
	// subregion.go), so one set per FTL suffices.
	identSlots   []int
	lsnsBuf      []int64
	partialBuf   []int64
	fullSlotsBuf []int
	slot1        [1]int

	// Relocation scratch (see subregion.go). survivorsBuf backs
	// survivorsIn for both subPass and GC Work — safe because subPass
	// takes its survivors only after nextEligible (whose nested GC work
	// has finished with the buffer) and nothing downstream re-enters
	// survivorsIn. shiftBuf/evictBuf split a pass's survivors, hotBuf is
	// GC Work's hot list (distinct from shiftBuf: Work nests inside
	// subPass via nextEligible). pageStampsBuf holds the verified page
	// image, passStampsBuf and gcStampsBuf the program payloads.
	survivorsBuf  []survivor
	shiftBuf      []survivor
	evictSvBuf    []survivor
	hotBuf        []survivor
	pageStampsBuf []nand.Stamp
	passStampsBuf []nand.Stamp
	gcStampsBuf   []nand.Stamp
}

var _ ftl.FTL = (*FTL)(nil)

// New builds a subFTL over the device.
func New(dev *nand.Device, cfg Config) (*FTL, error) {
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	if cfg.LogicalSectors <= 0 || cfg.LogicalSectors%ps != 0 {
		return nil, fmt.Errorf("core: LogicalSectors = %d must be a positive multiple of %d", cfg.LogicalSectors, ps)
	}
	if cfg.SubRegionFrac <= 0 || cfg.SubRegionFrac >= 1 {
		return nil, fmt.Errorf("core: SubRegionFrac = %v outside (0,1)", cfg.SubRegionFrac)
	}
	if cfg.GCReserveBlocks < 2 {
		cfg.GCReserveBlocks = 2
	}
	if cfg.BufferSectors < g.SubpagesPerPage {
		cfg.BufferSectors = g.SubpagesPerPage
	}
	if cfg.RetentionThreshold <= 0 {
		cfg.RetentionThreshold = 15 * 24 * time.Hour
	}
	if cfg.ScrubInterval <= 0 {
		cfg.ScrubInterval = 24 * time.Hour
	}
	subQuota := int(float64(g.TotalBlocks()) * cfg.SubRegionFrac)
	if subQuota < 3 {
		subQuota = 3
	}
	if subQuota > g.TotalBlocks()-cfg.GCReserveBlocks-3 {
		return nil, fmt.Errorf("core: device too small for a %d-block subpage region", subQuota)
	}
	f := &FTL{
		dev:       dev,
		man:       ftl.NewManager(dev),
		ver:       ftl.NewVersions(cfg.LogicalSectors),
		cfg:       cfg,
		hash:      mapping.NewHashTable(subQuota * g.SubpagesPerBlock()),
		rmapSub:   make([]int64, g.TotalSubpages()),
		verAt:     make([]uint32, g.TotalSubpages()),
		writtenAt: make([]sim.Time, g.TotalSubpages()),
		updated:   make([]bool, cfg.LogicalSectors),
		meta:      make([]subBlock, g.TotalBlocks()),
		subQuota:  subQuota,
		buf:       buffer.NewAligned(g.SubpagesPerPage, cfg.BufferSectors),
		pageSecs:  g.SubpagesPerPage,
		gcSlack:   cfg.GC.BackgroundSlack,
	}
	pol, err := gc.NewPolicy(cfg.GC)
	if err != nil {
		return nil, err
	}
	f.subCol = gc.NewCollector(pol, cfg.GC.StepPages)
	stripe := g.Chips()
	if cap := subQuota / 3; stripe > cap {
		stripe = cap
	}
	if stripe < 1 {
		stripe = 1
	}
	f.actives = make([]nand.BlockID, stripe)
	f.live = newSlotSet(stripe)
	f.identSlots = make([]int, g.SubpagesPerPage)
	for i := range f.identSlots {
		f.identSlots[i] = i
	}
	for i := range f.rmapSub {
		f.rmapSub[i] = mapping.None
	}
	// The full-page region is uncapped: block roles are assigned at
	// program time (paper §4.2), so full-page data may spread over idle
	// subpage-region capacity — the reclaim hook converts empty subpage
	// blocks back whenever the pool runs low.
	store, err := fullpage.New(dev, f.man, f.ver, &f.stats, ftl.RoleFull, cfg.LogicalSectors/ps, cfg.GCReserveBlocks, 0)
	if err != nil {
		return nil, err
	}
	f.full = store
	if err := store.SetGC(cfg.GC); err != nil {
		return nil, err
	}
	store.SetReclaim(f.reclaimEmptySubBlock)
	floorExtra := 0
	if cfg.ErasePolicy != nil {
		f.man.SetEraseDepth(lifetime.DepthFn(dev, cfg.ErasePolicy))
		f.policyName = cfg.ErasePolicy.Name()
	}
	if cfg.Lifetime {
		pred, err := lifetime.NewPredictor(cfg.LogicalSectors/ps, lifetime.PredictorConfig{})
		if err != nil {
			return nil, err
		}
		f.pred = pred
		store.SetColdClassifier(f.classifyCold)
		floorExtra = 2 // the cold append stripe's open blocks
	}
	// Degrade to read-only once grown-bad blocks eat the spare capacity
	// down to the minimum the FTL needs to keep writing: enough blocks for
	// the logical space, the GC reserve, the open stripe, and a minimal
	// subpage region.
	secPerBlock := int64(g.SubpagesPerPage * g.PagesPerBlock)
	dataBlocks := int((cfg.LogicalSectors + secPerBlock - 1) / secPerBlock)
	f.man.SetCapacityFloor(dataBlocks + cfg.GCReserveBlocks + len(f.actives) + 3 + floorExtra)
	return f, nil
}

// classifyCold is the full-page store's longevity hook: it tallies the
// predictor's verdict on every host-side full-page program and routes
// predicted-cold pages to the segregated stripe.
func (f *FTL) classifyCold(lpn int64) bool {
	switch f.pred.Class(lpn) {
	case lifetime.ClassCold:
		f.stats.LifetimeColdWrites++
		return true
	case lifetime.ClassHot:
		f.stats.LifetimeHotWrites++
	default:
		f.stats.LifetimeUnknownWrites++
	}
	return false
}

// reclaimEmptySubBlock erases one subpage-region block that holds no live
// data and returns it to the shared pool (dynamic region conversion). It
// reports whether a block was reclaimed.
func (f *FTL) reclaimEmptySubBlock() bool {
	g := f.dev.Geometry()
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if !f.meta[b].inUse || f.man.Valid(id) != 0 {
			continue
		}
		if f.man.State(id) == ftl.StateFree {
			continue
		}
		if (f.gcDestSet && id == f.gcDest) || f.isActive(id) {
			continue
		}
		if f.subCol.InFlight(id) {
			continue
		}
		if err := f.man.Recycle(id); err != nil {
			return false
		}
		f.meta[id] = subBlock{}
		f.subBlocks--
		if f.man.State(id) == ftl.StateBad {
			// The block was retired while empty; it is out of the region
			// but gave nothing back to the pool. Keep looking.
			continue
		}
		f.stats.RegionReclaims++
		return true
	}
	return false
}

// Name implements ftl.FTL.
func (f *FTL) Name() string { return "subFTL" }

// ReadOnly implements ftl.HealthProber: grown-bad blocks have eaten the
// spare capacity down to the floor.
func (f *FTL) ReadOnly() bool { return f.man.ReadOnly() }

// SubRegionBlocks returns the current subpage-region block count.
func (f *FTL) SubRegionBlocks() int { return f.subBlocks }

// RegionValid returns the number of live subpages in the subpage region.
func (f *FTL) RegionValid() int { return f.man.TotalValid(ftl.RoleSub) }

// HashLoad returns the subpage-mapping hash table's live entries and
// average probe length, for the paper's mapping-memory discussion.
func (f *FTL) HashLoad() (entries int, avgProbes float64) {
	return f.hash.Len(), f.hash.AverageProbes()
}

// writeFullAligned routes a complete aligned logical page to the full-page
// region, retiring any stale copies its sectors have elsewhere.
func (f *FTL) writeFullAligned(lpn int64, attrSmall int64) error {
	base := lpn * int64(f.pageSecs)
	for i := 0; i < f.pageSecs; i++ {
		f.dropSubCopy(base + int64(i))
	}
	return f.full.WriteSectors(lpn, f.identSlots, attrSmall)
}

// dropSubCopy removes lsn's subpage-region mapping, if any (its data is
// being superseded elsewhere).
func (f *FTL) dropSubCopy(lsn int64) {
	spn, ok := f.hash.Delete(lsn)
	if !ok {
		return
	}
	g := f.dev.Geometry()
	f.rmapSub[spn] = mapping.None
	f.man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))), -1)
	f.updated[lsn] = false
}

// dropFullCopy invalidates lsn's full-region copy, if any.
func (f *FTL) dropFullCopy(lsn int64) {
	lpn := lsn / int64(f.pageSecs)
	slot := int(lsn % int64(f.pageSecs))
	if f.full.Mapped(lpn) && f.full.Mask(lpn)&(1<<slot) != 0 {
		f.slot1[0] = slot
		f.full.TrimSectors(lpn, f.slot1[:])
	}
}

// Write implements ftl.FTL, realizing the paper's §4.1 data placement: the
// flushed length decides the region. Large requests are split — full
// aligned pages to the full-page region, partial head/tail sectors to the
// subpage region (so even misaligned large writes never RMW). Small sync
// writes go straight to the subpage region; small async writes stage in
// the aligned buffer hoping to merge into full pages.
func (f *FTL) Write(lsn int64, sectors int, sync bool) error {
	if err := f.write(lsn, sectors, sync); err != nil {
		return err
	}
	return f.payGC()
}

// sectorRun returns [lsn, lsn+sectors) in reusable scratch, valid until
// the next sectorRun call.
func (f *FTL) sectorRun(lsn int64, sectors int) []int64 {
	if cap(f.lsnsBuf) < sectors {
		f.lsnsBuf = make([]int64, sectors)
	}
	lsns := f.lsnsBuf[:sectors]
	for i := range lsns {
		lsns[i] = lsn + int64(i)
	}
	return lsns
}

func (f *FTL) write(lsn int64, sectors int, sync bool) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	if f.man.ReadOnly() {
		return ftl.ErrReadOnly
	}
	f.stats.HostWriteReqs++
	f.stats.HostSectorsWritten += int64(sectors)
	g := f.dev.Geometry()
	small := sectors < f.pageSecs
	if small {
		f.stats.SmallWriteReqs++
		f.stats.SmallHostBytes += int64(sectors) * int64(g.SubpageBytes)
	}
	lsns := f.sectorRun(lsn, sectors)
	for _, l := range lsns {
		f.ver.Bump(l, small)
	}
	if f.pred != nil {
		// One observation per logical page the request touches, before any
		// placement decision (observe-then-classify): the classifiers below
		// must see the freshest prediction state.
		ps := int64(f.pageSecs)
		for lpn, last := lsn/ps, (lsn+int64(sectors)-1)/ps; lpn <= last; lpn++ {
			f.pred.Observe(lpn)
		}
	}

	if !small {
		// Large request: bypass the buffer entirely.
		f.buf.Remove(lsns)
		ps := int64(f.pageSecs)
		i := 0
		partial := f.partialBuf[:0]
		for i < sectors {
			cur := lsn + int64(i)
			if cur%ps == 0 && sectors-i >= f.pageSecs {
				if err := f.writeFullAligned(cur/ps, 0); err != nil {
					f.partialBuf = partial[:0]
					return err
				}
				i += f.pageSecs
				continue
			}
			// Partial head/tail sector: subpage region, no RMW.
			partial = append(partial, cur)
			i++
		}
		f.partialBuf = partial[:0]
		if len(partial) > 0 {
			return f.subWriteRun(partial, 0)
		}
		return nil
	}

	if sync {
		f.buf.Remove(lsns)
		return f.subWriteSteered(lsns, int64(g.SubpageBytes))
	}

	fullPages, evicted := f.buf.Stage(lsns)
	for _, lpn := range fullPages {
		// Every sector of a merged page came from small requests; each is
		// charged its exact share (S_sub), i.e. request WAF 1.
		if err := f.writeFullAligned(lpn, f.smallAttrForPage(lpn)); err != nil {
			return err
		}
	}
	for _, group := range evicted {
		if err := f.subWriteSteered(group, int64(g.SubpageBytes)); err != nil {
			return err
		}
	}
	return nil
}

// subWriteSteered is the longevity gate in front of the subpage region:
// sectors of predicted-cold logical pages go straight to the full-page
// region (admitting them to the subpage region would only churn through
// its GC and retention eviction paths later), the rest take the normal
// erase-free subpage path. With the predictor off it is subWriteRun.
func (f *FTL) subWriteSteered(lsns []int64, attrPerSector int64) error {
	if f.pred == nil {
		return f.subWriteRun(lsns, attrPerSector)
	}
	g := f.dev.Geometry()
	ps := int64(f.pageSecs)
	keep := f.steerBuf[:0]
	for i := 0; i < len(lsns); {
		lpn := lsns[i] / ps
		j := i
		for j < len(lsns) && lsns[j]/ps == lpn {
			j++
		}
		if f.pred.Class(lpn) != lifetime.ClassCold {
			keep = append(keep, lsns[i:j]...)
			i = j
			continue
		}
		slots := f.steerSlots[:0]
		for _, l := range lsns[i:j] {
			f.dropSubCopy(l)
			slots = append(slots, int(l%ps))
		}
		// A steered small write programs a full page (its RMW), the same
		// attribution convention as cgmFTL's small-write path.
		var attr int64
		if attrPerSector > 0 {
			attr = int64(g.PageBytes())
		}
		f.stats.LifetimeSteered += int64(j - i)
		err := f.full.WriteSectors(lpn, slots, attr)
		f.steerSlots = slots[:0]
		if err != nil {
			f.steerBuf = keep[:0]
			return err
		}
		i = j
	}
	f.steerBuf = keep
	if len(keep) == 0 {
		return nil
	}
	return f.subWriteRun(keep, attrPerSector)
}

// smallAttrForPage sums the small-origin attribution for a full-page write
// of lpn.
func (f *FTL) smallAttrForPage(lpn int64) int64 {
	g := f.dev.Geometry()
	var attr int64
	base := lpn * int64(f.pageSecs)
	for i := 0; i < f.pageSecs; i++ {
		if f.ver.SmallOrigin(base + int64(i)) {
			attr += int64(g.SubpageBytes)
		}
	}
	return attr
}

// Read implements ftl.FTL. Lookup order is buffer, subpage region (hash),
// then full-page region; grouping full-region sectors by page keeps reads
// to one page sense per touched page.
func (f *FTL) Read(lsn int64, sectors int) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	f.stats.HostReadReqs++
	f.stats.HostSectorsRead += int64(sectors)
	ps := int64(f.pageSecs)
	var fullLPN int64 = -1
	fullSlots := f.fullSlotsBuf[:0]
	flushFull := func() error {
		if fullLPN < 0 || len(fullSlots) == 0 {
			fullLPN = -1
			fullSlots = fullSlots[:0]
			return nil
		}
		err := f.full.ReadSectors(fullLPN, fullSlots)
		fullLPN = -1
		fullSlots = fullSlots[:0]
		return err
	}
	for i := 0; i < sectors; i++ {
		cur := lsn + int64(i)
		if f.buf.Contains(cur) {
			f.stats.ReadBufferHits++
			continue
		}
		if spn, ok := f.hash.Get(cur); ok {
			stamp, err := f.dev.ReadSubpage(nand.SubpageID(spn))
			if err != nil {
				return fmt.Errorf("core: subpage read of lsn %d: %w", cur, err)
			}
			want := nand.Stamp{LSN: cur, Version: f.ver.Current(cur)}
			if stamp != want {
				return fmt.Errorf("core: integrity violation at lsn %d: got %v, want %v", cur, stamp, want)
			}
			continue
		}
		lpn, slot := cur/ps, int(cur%ps)
		if lpn != fullLPN {
			if err := flushFull(); err != nil {
				return err
			}
			fullLPN = lpn
		}
		fullSlots = append(fullSlots, slot)
	}
	err := flushFull()
	f.fullSlotsBuf = fullSlots[:0]
	return err
}

// Trim implements ftl.FTL.
func (f *FTL) Trim(lsn int64, sectors int) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	f.stats.HostTrimReqs++
	ps := int64(f.pageSecs)
	lsns := f.sectorRun(lsn, sectors)
	f.buf.Remove(lsns)
	for _, cur := range lsns {
		f.dropSubCopy(cur)
		f.slot1[0] = int(cur % ps)
		f.full.TrimSectors(cur/ps, f.slot1[:])
		f.ver.Clear(cur)
	}
	return nil
}

// Flush implements ftl.FTL: unmerged staged sectors go to the subpage
// region, exactly as if their page never completed.
func (f *FTL) Flush() error {
	g := f.dev.Geometry()
	for _, group := range f.buf.Drain() {
		if err := f.subWriteSteered(group, int64(g.SubpageBytes)); err != nil {
			return err
		}
	}
	return f.payGC()
}

// payGC is the incremental write tax: with a budgeted collector, each
// host write settles at most one bounded collection step of whichever
// debt is due — a preempted region victim first (it pins a block
// mid-drain), then the free pool when it is at or below the reserve,
// then the subpage region's paced pre-drain. Region GC has no pool
// watermark to key on (its foreground trigger is running out of
// advanceable rounds, which flickers with every host overwrite), so its
// debt is paced by consumption instead: at quota, every subpage written
// eventually costs one GC visit, and the tax keeps collection that far
// ahead. Legacy (unbudgeted) configurations pay nothing here and keep
// their whole-block foreground drains bit-for-bit.
func (f *FTL) payGC() error {
	if !f.subCol.Budgeted() {
		return nil
	}
	if f.subCol.Active() {
		return f.stepSubGC()
	}
	if f.man.FreeCount() <= f.cfg.GCReserveBlocks {
		if _, err := f.full.StepOnce(); err != nil {
			if errors.Is(err, gc.ErrNoVictim) {
				// The spare space lives in the subpage region.
				return f.stepSubGC()
			}
			return err
		}
		return nil
	}
	if f.subBlocks >= f.subQuota && f.gcDebt >= f.cfg.GC.StepPages {
		f.gcDebt -= f.cfg.GC.StepPages
		return f.stepSubGC()
	}
	return nil
}

// Tick implements ftl.FTL: run the retention manager when due, then — with
// background GC slack configured — one bounded collection step whenever
// the free pool is within the slack of the out-of-space reserve or a
// preempted victim is pending. The pool is the right pressure signal:
// region-round exhaustion flickers with every host overwrite, so
// pre-draining on it only sacrifices open blocks' remaining rounds.
// Ticks are background-class commands in the host scheduler, so these
// steps yield to pending host reads.
func (f *FTL) Tick() error {
	if !f.cfg.DisableRetention {
		now := f.dev.Clock().Now()
		if now.Sub(f.lastScrub) >= f.cfg.ScrubInterval {
			f.lastScrub = now
			if err := f.scrubRetention(now); err != nil {
				return err
			}
		}
	}
	if f.gcSlack <= 0 {
		return nil
	}
	// A preempted region victim pins its block mid-drain: finish it first.
	if f.subCol.Active() {
		return f.stepSubGC()
	}
	col := f.full.Collector()
	if !col.Active() && f.man.FreeCount() > f.cfg.GCReserveBlocks+f.gcSlack {
		return nil
	}
	if _, err := f.full.StepOnce(); err != nil {
		if errors.Is(err, gc.ErrNoVictim) {
			// The spare space lives in the subpage region: step its
			// collector instead.
			return f.stepSubGC()
		}
		return err
	}
	return nil
}

// stepSubGC runs one budgeted region-GC step, swallowing "nothing
// collectable" — not an error for opportunistic background work. The
// open-victim fallback is enabled: region blocks only reach StateFull
// after exhausting every round, so most drains sacrifice an open block's
// remaining rounds — and Tick only steps here when a foreground drain
// that would pick the same victim is at most gcSlack refills away.
func (f *FTL) stepSubGC() error {
	if _, err := f.subCol.Step(&subTarget{f: f, fb: true}); err != nil && !errors.Is(err, gc.ErrNoVictim) {
		return err
	}
	return nil
}

// Stats implements ftl.FTL.
func (f *FTL) Stats() ftl.Stats {
	s := f.stats
	col := f.full.Collector()
	s.GCSteps = col.Steps() + f.subCol.Steps()
	s.GCPagesCopied = col.PagesCopied() + f.subCol.PagesCopied()
	s.GCPreemptions = col.Preemptions() + f.subCol.Preemptions()
	s.GCPolicy = col.PolicyName()
	s.MappingBytes = f.full.MappingBytes() + f.hash.MemoryBytes()
	s.SectorBytes = int64(f.dev.Geometry().SubpageBytes)
	s.GrownBadBlocks = int64(f.man.BadCount())
	s.ErasePolicy = f.policyName
	if f.pred != nil {
		s.LifetimeObserves = f.pred.Observes()
	}
	s.Wear = f.man.WearDist()
	s.Device = f.dev.Counters()
	return s
}

// Submit implements ftl.Submitter, the host scheduler's non-blocking
// issue path.
func (f *FTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// ChipOf implements ftl.ChipProbe: subpage-region residents resolve to
// their subpage's chip, everything else falls through to the full-page
// region's mapping; buffered and unmapped sectors report -1.
func (f *FTL) ChipOf(lsn int64) int {
	if lsn < 0 || lsn >= f.ver.Size() || f.buf.Contains(lsn) {
		return -1
	}
	if spn, ok := f.hash.Get(lsn); ok {
		g := f.dev.Geometry()
		return g.ChipOf(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))))
	}
	return f.full.ChipOf(lsn / int64(f.pageSecs))
}
