// Package fgm implements fgmFTL, the paper's fine-grained-mapping
// baseline: a log-structured FTL whose logical page equals the subpage
// size (4 KB), fronted by a write buffer that packs asynchronous small
// writes into full physical pages. Synchronous small writes must flush
// immediately and waste the rest of their physical page — the internal
// fragmentation that makes fgmFTL degrade as r_synch rises.
package fgm

import (
	"fmt"

	"espftl/internal/buffer"
	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// Config parameterizes fgmFTL.
type Config struct {
	// LogicalSectors is the exported logical space in sectors.
	LogicalSectors int64
	// GCReserveBlocks is the free-pool floor that triggers GC.
	GCReserveBlocks int
	// OpportunisticFill is an extension over the paper's FGM scheme: a
	// partial sync flush tops itself up with staged async sectors instead
	// of padding. Off by default to match the baseline the paper
	// evaluates; the ablation benches quantify the difference.
	OpportunisticFill bool
	// GC selects the victim policy, step budget and background slack.
	// The zero value (greedy, whole-block, no background) is the legacy
	// behaviour.
	GC gc.Options
	// ErasePolicy, when non-nil, chooses the depth of every block erase
	// (adaptive erase; see internal/lifetime). Nil keeps the legacy
	// full-depth erases, bit-identical to a build without the subsystem.
	ErasePolicy lifetime.ErasePolicy
	// Lifetime, when true, enables longevity-aware placement: a per-page
	// update-interval predictor classifies each flush chunk by majority
	// vote and predicted-cold chunks land on a dedicated append stripe.
	Lifetime bool
}

// FTL is the fgmFTL instance.
type FTL struct {
	dev   *nand.Device
	man   *ftl.Manager
	ver   *ftl.Versions
	stats ftl.Stats

	table *mapping.FineTable
	rmap  []int64 // SPN -> LSN
	buf   *buffer.Buffer

	pageSecs int
	oppFill  bool

	// alloc owns the append stripes striped across chips for channel/way
	// parallelism — host writes, GC relocations and, with the lifetime
	// subsystem on, predicted-cold flush chunks — and paces the collector.
	alloc *ftl.Allocator

	// pred and policyName are the lifetime subsystem's hooks: the
	// longevity predictor voting on flush-chunk placement (nil when
	// Config.Lifetime is off) and the erase-depth policy label for stats.
	pred       *lifetime.Predictor
	policyName string

	// gcCursor is the scan-phase page cursor, gcStaged the live sectors
	// awaiting repack (gcHead indexes the next entry so draining never
	// re-slices the buffer off its backing array), gcChunk a reusable
	// chunk buffer — together the per-victim checkpoint the collector
	// resumes across steps.
	gcCursor int
	gcStaged []gcStage
	gcHead   int
	gcChunk  []int64

	// Reusable steady-state scratch. lsnsBuf expands host requests into
	// sector lists (Write and Trim never nest, so they share it; the
	// buffer copies what it stages). liveBuf is the GC scan phase's
	// per-page live-slot list.
	lsnsBuf []int64
	liveBuf []int
}

// sectorRun expands [lsn, lsn+sectors) into the reusable scratch list.
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

// gcStage records one live sector found during the GC scan phase: the
// logical sector and the physical subpage it was staged from, so the
// repack phase can drop entries whose mapping moved between steps.
type gcStage struct {
	lsn, spn int64
}

var _ ftl.FTL = (*FTL)(nil)

// New builds an fgmFTL over the device.
func New(dev *nand.Device, cfg Config) (*FTL, error) {
	g := dev.Geometry()
	if cfg.LogicalSectors <= 0 {
		return nil, fmt.Errorf("fgm: LogicalSectors = %d", cfg.LogicalSectors)
	}
	if cfg.GCReserveBlocks < 2 {
		cfg.GCReserveBlocks = 2
	}
	f := &FTL{
		dev:      dev,
		man:      ftl.NewManager(dev),
		ver:      ftl.NewVersions(cfg.LogicalSectors),
		table:    mapping.NewFineTable(cfg.LogicalSectors),
		rmap:     make([]int64, g.TotalSubpages()),
		buf:      buffer.New(g.SubpagesPerPage),
		pageSecs: g.SubpagesPerPage,
		oppFill:  cfg.OpportunisticFill,
	}
	gcWidth := min(g.Chips(), max(1, cfg.GCReserveBlocks-4))
	f.alloc = ftl.NewAllocator(dev, f.man, &f.stats, ftl.RoleFull, ftl.TagFine, g.SubpagesPerBlock(), cfg.GCReserveBlocks, g.Chips(), gcWidth, f.refill, f.beginGC, f.workGC)
	if err := f.alloc.SetGC(cfg.GC); err != nil {
		return nil, err
	}
	for i := range f.rmap {
		f.rmap[i] = mapping.None
	}
	if cfg.ErasePolicy != nil {
		f.man.SetEraseDepth(lifetime.DepthFn(dev, cfg.ErasePolicy))
		f.policyName = cfg.ErasePolicy.Name()
	}
	if cfg.Lifetime {
		ps := int64(g.SubpagesPerPage)
		pred, err := lifetime.NewPredictor((cfg.LogicalSectors+ps-1)/ps, lifetime.PredictorConfig{})
		if err != nil {
			return nil, err
		}
		f.pred = pred
		f.alloc.EnableCold()
	}
	// Degrade to read-only once grown-bad blocks eat the spare capacity
	// down to the minimum the FTL needs to keep writing: enough blocks for
	// the logical space, the GC reserve, and the open append points.
	secPerBlock := int64(g.SubpagesPerPage * g.PagesPerBlock)
	dataBlocks := int((cfg.LogicalSectors + secPerBlock - 1) / secPerBlock)
	f.man.SetCapacityFloor(dataBlocks + cfg.GCReserveBlocks + f.alloc.Width())
	return f, nil
}

// Name implements ftl.FTL.
func (f *FTL) Name() string { return "fgmFTL" }

// ReadOnly implements ftl.HealthProber: grown-bad blocks have eaten the
// spare capacity down to the floor.
func (f *FTL) ReadOnly() bool { return f.man.ReadOnly() }

// refill is fgmFTL's policy before a host or cold append point opens a
// block: drain whole victims until the free pool is above the allocator's
// floor.
func (f *FTL) refill() error {
	for f.man.FreeCount() <= f.alloc.Floor() {
		if err := f.alloc.CollectOnce(); err != nil {
			return err
		}
	}
	return nil
}

// programPacked writes the given sectors into one physical page (padding
// unfilled slots) and remaps them. Packing arbitrary sectors into one
// page is what fine-grained mapping buys.
func (f *FTL) programPacked(lsns []int64, forGC bool) error {
	if len(lsns) == 0 || len(lsns) > f.pageSecs {
		return fmt.Errorf("fgm: packing %d sectors into a %d-sector page", len(lsns), f.pageSecs)
	}
	g := f.dev.Geometry()
	stamps := f.alloc.Stamps()
	defer f.alloc.PutStamps(stamps)
	for slot := range stamps {
		stamps[slot] = nand.Padding
	}
	for slot, lsn := range lsns {
		stamps[slot] = nand.Stamp{LSN: lsn, Version: f.ver.Current(lsn)}
	}
	p, err := f.alloc.Program(stamps, forGC, !forGC && f.classifyCold(lsns))
	if err != nil {
		return err
	}
	blk := g.BlockOfPage(p)
	for slot, lsn := range lsns {
		spn := int64(g.SubpageOf(p, slot))
		old := f.table.Update(lsn, spn)
		f.rmap[spn] = lsn
		f.man.AddValid(blk, 1)
		if old != mapping.None {
			f.man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(old))), -1)
		}
	}
	return nil
}

// classifyCold is the longevity vote on one host flush chunk: each sector's
// logical page gets the predictor's verdict, and the chunk routes to the
// cold stripe when cold votes hold a strict majority. One verdict per chunk
// feeds the hot/cold/unknown tallies (fgm places chunks, not pages).
func (f *FTL) classifyCold(lsns []int64) bool {
	if f.pred == nil {
		return false
	}
	ps := int64(f.pageSecs)
	coldVotes, hotVotes := 0, 0
	for _, lsn := range lsns {
		switch f.pred.Class(lsn / ps) {
		case lifetime.ClassCold:
			coldVotes++
		case lifetime.ClassHot:
			hotVotes++
		}
	}
	switch {
	case coldVotes > len(lsns)/2:
		f.stats.LifetimeColdWrites++
		return true
	case hotVotes > len(lsns)/2:
		f.stats.LifetimeHotWrites++
	default:
		f.stats.LifetimeUnknownWrites++
	}
	return false
}

// flushGroup writes one buffer flush group to flash, splitting it into
// page-sized chunks and attributing flash bytes to small-origin sectors.
func (f *FTL) flushGroup(lsns []int64) error {
	g := f.dev.Geometry()
	for len(lsns) > 0 {
		n := f.pageSecs
		if n > len(lsns) {
			n = len(lsns)
		}
		chunk := lsns[:n]
		lsns = lsns[n:]
		if f.oppFill && n < f.pageSecs {
			fill := f.buf.PopUpTo(f.pageSecs - n)
			chunk = append(append([]int64{}, chunk...), fill...)
			n = len(chunk)
		}
		if err := f.programPacked(chunk, false); err != nil {
			return err
		}
		// Each sector's share of the program is PageBytes/len(chunk);
		// a lone sync sector is charged the whole page (w = N_sub).
		share := int64(g.PageBytes()) / int64(n)
		for _, lsn := range chunk {
			if f.ver.SmallOrigin(lsn) {
				f.stats.SmallFlashBytes += share
			}
		}
	}
	return nil
}

// Write implements ftl.FTL.
func (f *FTL) Write(lsn int64, sectors int, sync bool) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	if f.man.ReadOnly() {
		return ftl.ErrReadOnly
	}
	f.stats.HostWriteReqs++
	f.stats.HostSectorsWritten += int64(sectors)
	small := sectors < f.pageSecs
	if small {
		f.stats.SmallWriteReqs++
		f.stats.SmallHostBytes += int64(sectors) * int64(f.dev.Geometry().SubpageBytes)
	}
	lsns := f.sectorRun(lsn, sectors)
	for i := range lsns {
		f.ver.Bump(lsns[i], small)
	}
	if f.pred != nil {
		// One observation per logical page the request touches, at write
		// time (not flush time): the predictor models host update
		// intervals, and buffering must not distort them.
		ps := int64(f.pageSecs)
		for lpn, last := lsn/ps, (lsn+int64(sectors)-1)/ps; lpn <= last; lpn++ {
			f.pred.Observe(lpn)
		}
	}
	before := f.buf.Absorbed()
	groups := f.buf.Write(lsns, sync)
	f.stats.BufferAbsorbed += f.buf.Absorbed() - before
	for _, grp := range groups {
		if err := f.flushGroup(grp.LSNs); err != nil {
			return err
		}
	}
	return f.alloc.Pay()
}

// Read implements ftl.FTL. Sectors resident in the write buffer are
// served from RAM; the rest cost one flash page read each (fine-grained
// data is scattered, so no page grouping is attempted).
func (f *FTL) Read(lsn int64, sectors int) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	f.stats.HostReadReqs++
	f.stats.HostSectorsRead += int64(sectors)
	for i := 0; i < sectors; i++ {
		cur := lsn + int64(i)
		if f.buf.Contains(cur) {
			f.stats.ReadBufferHits++
			continue
		}
		spn := f.table.Lookup(cur)
		if spn == mapping.None {
			continue // unwritten sectors read as zeroes
		}
		stamp, err := f.dev.ReadSubpage(nand.SubpageID(spn))
		if err != nil {
			return err
		}
		want := nand.Stamp{LSN: cur, Version: f.ver.Current(cur)}
		if stamp != want {
			return fmt.Errorf("fgm: integrity violation at lsn %d: got %v, want %v", cur, stamp, want)
		}
	}
	return nil
}

// Trim implements ftl.FTL.
func (f *FTL) Trim(lsn int64, sectors int) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	f.stats.HostTrimReqs++
	lsns := f.sectorRun(lsn, sectors)
	f.buf.Trim(lsns)
	g := f.dev.Geometry()
	for _, cur := range lsns {
		if old := f.table.Invalidate(cur); old != mapping.None {
			f.man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(old))), -1)
		}
		f.ver.Clear(cur)
	}
	return nil
}

// Flush implements ftl.FTL: drain the write buffer.
func (f *FTL) Flush() error {
	for _, grp := range f.buf.Drain() {
		if err := f.flushGroup(grp.LSNs); err != nil {
			return err
		}
	}
	return nil
}

// Tick implements ftl.FTL: background collection (see
// ftl.Allocator.Tick).
func (f *FTL) Tick() error { return f.alloc.Tick() }

// beginGC and workGC are fgmFTL's page moves for the collector.
// Collection runs in two phases riding one checkpoint: first the victim is
// scanned page by page (live sectors staged, dead pages skipped free of
// budget), then the staged sectors are repacked one physical page per
// workGC call. The repack drops entries whose mapping moved between steps
// — an overwrite made the staged copy stale, or a trim cleared it, and
// reprogramming a trimmed sector would resurrect it.
// beginGC resets the two-phase checkpoint.
func (f *FTL) beginGC(b nand.BlockID) {
	f.stats.GCInvocations++
	f.gcCursor = 0
	f.gcStaged = f.gcStaged[:0]
	f.gcHead = 0
}

// workGC advances the victim's collection by one page.
func (f *FTL) workGC(victim nand.BlockID) (int, bool, error) {
	g := f.dev.Geometry()
	// Phase 1: scan the victim, staging live sectors. One page read per
	// Work call; pages with nothing live cost no device work and are
	// skipped without charging the step budget.
	for f.gcCursor < g.PagesPerBlock {
		p := g.PageOf(victim, f.gcCursor)
		f.gcCursor++
		// Find live sectors in this page before paying for the read.
		liveSlots := f.liveBuf[:0]
		for slot := 0; slot < f.pageSecs; slot++ {
			spn := int64(g.SubpageOf(p, slot))
			lsn := f.rmap[spn]
			if lsn != mapping.None && f.table.Lookup(lsn) == spn {
				liveSlots = append(liveSlots, slot)
			}
		}
		f.liveBuf = liveSlots[:0]
		if len(liveSlots) == 0 {
			continue
		}
		stamps, errs, err := f.dev.ReadPage(p)
		if err != nil {
			return 0, false, err
		}
		for _, slot := range liveSlots {
			if errs[slot] != nil {
				return 0, false, fmt.Errorf("fgm: GC lost subpage %d of block %d: %w", slot, victim, errs[slot])
			}
			f.gcStaged = append(f.gcStaged, gcStage{lsn: stamps[slot].LSN, spn: int64(g.SubpageOf(p, slot))})
		}
		return 0, false, nil
	}
	// Phase 2: repack, one physical page per call, dropping entries
	// whose mapping moved since they were staged.
	chunk := f.gcChunk[:0]
	for f.gcHead < len(f.gcStaged) && len(chunk) < f.pageSecs {
		st := f.gcStaged[f.gcHead]
		f.gcHead++
		if f.rmap[st.spn] != st.lsn || f.table.Lookup(st.lsn) != st.spn {
			continue
		}
		chunk = append(chunk, st.lsn)
	}
	f.gcChunk = chunk
	if len(chunk) == 0 {
		return 0, true, nil
	}
	if err := f.programPacked(chunk, true); err != nil {
		return 0, false, err
	}
	for _, lsn := range chunk {
		f.stats.GCMovedSectors++
		if f.ver.SmallOrigin(lsn) {
			f.stats.SmallFlashBytes += int64(g.SubpageBytes)
		}
	}
	return 1, f.gcHead == len(f.gcStaged), nil
}

// Stats implements ftl.FTL.
func (f *FTL) Stats() ftl.Stats {
	s := f.stats
	col := f.alloc.Collector()
	s.GCSteps = col.Steps()
	s.GCPagesCopied = col.PagesCopied()
	s.GCPreemptions = col.Preemptions()
	s.GCPolicy = col.PolicyName()
	s.MappingBytes = f.table.MemoryBytes()
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

// Check implements ftl.FTL.
func (f *FTL) Check() error {
	g := f.dev.Geometry()
	perBlock := make(map[nand.BlockID]int)
	mapped := 0
	for lsn := int64(0); lsn < f.table.Size(); lsn++ {
		spn := f.table.Lookup(lsn)
		if spn == mapping.None {
			continue
		}
		mapped++
		if f.rmap[spn] != lsn {
			return fmt.Errorf("fgm: rmap[%d] = %d, want %d", spn, f.rmap[spn], lsn)
		}
		perBlock[g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn)))]++
	}
	if mapped != f.table.Mapped() {
		return fmt.Errorf("fgm: table reports %d mapped, found %d", f.table.Mapped(), mapped)
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		want := perBlock[id]
		if f.man.State(id) == ftl.StateFree {
			if want != 0 {
				return fmt.Errorf("fgm: free block %d holds %d valid sectors", id, want)
			}
			continue
		}
		if got := f.man.Valid(id); got != want {
			return fmt.Errorf("fgm: block %d valid = %d, want %d", id, got, want)
		}
	}
	return nil
}

// Recover implements ftl.FTL: one OOB scan rebuilds the fine-grained table
// and per-block valid counts. Every valid slot is a per-sector candidate;
// duplicate LSNs resolve to the highest program sequence number.
func (f *FTL) Recover() (ftl.MountReport, error) {
	d0 := f.dev.DrainTime()
	blocks, pages, err := ftl.ScanBlocks(f.dev)
	if err != nil {
		return ftl.MountReport{}, err
	}
	g := f.dev.Geometry()
	type winner struct {
		spn int64
		seq uint64
		ver uint32
	}
	win := make(map[int64]winner)
	rep := ftl.MountReport{PagesScanned: pages}
	for _, blk := range blocks {
		rep.TornPages += int64(blk.Torn)
		if blk.MaxSeq > rep.MaxSeq {
			rep.MaxSeq = blk.MaxSeq
		}
		for pi, slots := range blk.Pages {
			p := g.PageOf(blk.Block, pi)
			for slot, sl := range slots {
				if sl.State != nand.OOBValid || sl.OOB.Stamp.IsPadding() {
					continue
				}
				lsn := sl.OOB.Stamp.LSN
				if lsn < 0 || lsn >= f.table.Size() {
					continue // foreign or pre-FTL test data; never adopt
				}
				spn := int64(g.SubpageOf(p, slot))
				if w, ok := win[lsn]; !ok || sl.OOB.Seq > w.seq {
					if ok {
						rep.StaleSubpages++
					}
					win[lsn] = winner{spn: spn, seq: sl.OOB.Seq, ver: sl.OOB.Stamp.Version}
				} else {
					rep.StaleSubpages++
				}
			}
		}
	}
	perBlock := make(map[nand.BlockID]int)
	for lsn, w := range win {
		// Only the winning copy re-seeds the version tracker: a stale copy
		// can out-version the winner (trim resets the counter), and the read
		// path verifies stamps against ver.Current.
		f.ver.Restore(lsn, w.ver)
		f.table.Update(lsn, w.spn)
		f.rmap[w.spn] = lsn
		perBlock[g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(w.spn)))]++
		rep.LiveSectors++
	}
	for _, blk := range blocks {
		if err := f.alloc.Adopt(blk.Block, perBlock[blk.Block]); err != nil {
			return rep, err
		}
		rep.BlocksAdopted++
	}
	if f.pred != nil {
		// Prediction tables are RAM-only and restart cold.
		f.pred.Reset()
	}
	rep.Duration = f.dev.DrainTime().Sub(d0)
	return rep, nil
}

// VersionOf implements ftl.VersionProber: the version a read of lsn would
// return, 0 when the sector holds no live data.
func (f *FTL) VersionOf(lsn int64) uint32 {
	if lsn < 0 || lsn >= f.table.Size() {
		return 0
	}
	if f.buf.Contains(lsn) || f.table.Lookup(lsn) != mapping.None {
		return f.ver.Current(lsn)
	}
	return 0
}

// Submit implements ftl.Submitter, the host scheduler's non-blocking
// issue path.
func (f *FTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// ChipOf implements ftl.ChipProbe: the chip holding the sector's mapped
// subpage, or -1 for buffered and unmapped sectors (which never touch a
// chip on read).
func (f *FTL) ChipOf(lsn int64) int {
	if lsn < 0 || lsn >= f.table.Size() || f.buf.Contains(lsn) {
		return -1
	}
	spn := f.table.Lookup(lsn)
	if spn == mapping.None {
		return -1
	}
	g := f.dev.Geometry()
	return g.ChipOf(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))))
}
