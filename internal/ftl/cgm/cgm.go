// Package cgm implements cgmFTL, the paper's coarse-grained-mapping
// baseline: page-level L2P mapping with no write buffer, where every write
// smaller than (or misaligned to) a full page pays a read-modify-write.
package cgm

import (
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/ftl/fullpage"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// Config parameterizes cgmFTL.
type Config struct {
	// LogicalSectors is the exported logical space in sectors; it must be
	// a multiple of the page size in sectors.
	LogicalSectors int64
	// GCReserveBlocks is the free-pool floor that triggers GC.
	GCReserveBlocks int
	// GC selects the victim policy, step budget and background slack.
	// The zero value (greedy, whole-block, no background) is the legacy
	// behaviour.
	GC gc.Options
	// ErasePolicy, when non-nil, chooses the depth of every block erase
	// (adaptive erase; see internal/lifetime). Nil keeps the legacy
	// full-depth erases, bit-identical to a build without the subsystem.
	ErasePolicy lifetime.ErasePolicy
	// Lifetime, when true, enables longevity-aware placement: a per-LPN
	// update-interval predictor classifies host writes and predicted-cold
	// pages land on a dedicated append stripe (hot/cold block
	// segregation).
	Lifetime bool
}

// FTL is the cgmFTL instance.
type FTL struct {
	dev   *nand.Device
	man   *ftl.Manager
	ver   *ftl.Versions
	stats ftl.Stats
	store *fullpage.Store

	// pred and policyName are the lifetime subsystem's hooks: the
	// longevity predictor feeding the store's cold classifier (nil when
	// Config.Lifetime is off) and the erase-depth policy label for stats.
	pred       *lifetime.Predictor
	policyName string

	pageSecs int

	// slotsBuf is forEachPage's reusable slot scratch. forEachPage never
	// nests (Write/Read/Trim each run one traversal at a time and the
	// store consumes the slots within the callback), so one buffer serves
	// the whole FTL and the steady-state I/O path allocates nothing.
	slotsBuf []int
}

var _ ftl.FTL = (*FTL)(nil)

// New builds a cgmFTL over the device.
func New(dev *nand.Device, cfg Config) (*FTL, error) {
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	if cfg.LogicalSectors <= 0 || cfg.LogicalSectors%ps != 0 {
		return nil, fmt.Errorf("cgm: LogicalSectors = %d must be a positive multiple of %d", cfg.LogicalSectors, ps)
	}
	if cfg.GCReserveBlocks < 2 {
		cfg.GCReserveBlocks = 2
	}
	f := &FTL{
		dev:      dev,
		man:      ftl.NewManager(dev),
		ver:      ftl.NewVersions(cfg.LogicalSectors),
		pageSecs: g.SubpagesPerPage,
		slotsBuf: make([]int, g.SubpagesPerPage),
	}
	store, err := fullpage.New(dev, f.man, f.ver, &f.stats, ftl.RoleFull, cfg.LogicalSectors/ps, cfg.GCReserveBlocks, 0)
	if err != nil {
		return nil, err
	}
	if err := store.SetGC(cfg.GC); err != nil {
		return nil, err
	}
	f.store = store
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
		f.store.SetColdClassifier(f.classifyCold)
		floorExtra = 2 // the cold append stripe's open blocks
	}
	// Degrade to read-only once grown-bad blocks eat the spare capacity
	// down to the minimum the FTL needs to keep writing: enough blocks for
	// the logical space, the GC reserve, and the open append points.
	dataBlocks := int((cfg.LogicalSectors/ps + int64(g.PagesPerBlock) - 1) / int64(g.PagesPerBlock))
	f.man.SetCapacityFloor(dataBlocks + cfg.GCReserveBlocks + 2*g.Chips() + floorExtra)
	return f, nil
}

// classifyCold is the store's longevity hook: it tallies the predictor's
// verdict on every host page program and routes predicted-cold pages to
// the segregated stripe.
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

// Name implements ftl.FTL.
func (f *FTL) Name() string { return "cgmFTL" }

// ReadOnly implements ftl.HealthProber: grown-bad blocks have eaten the
// spare capacity down to the floor.
func (f *FTL) ReadOnly() bool { return f.man.ReadOnly() }

// forEachPage splits a sector range into per-logical-page slot lists.
func (f *FTL) forEachPage(lsn int64, sectors int, fn func(lpn int64, slots []int) error) error {
	ps := int64(f.pageSecs)
	for remaining := int64(sectors); remaining > 0; {
		lpn := lsn / ps
		start := int(lsn % ps)
		n := int(ps) - start
		if int64(n) > remaining {
			n = int(remaining)
		}
		slots := f.slotsBuf[:n]
		for i := range slots {
			slots[i] = start + i
		}
		if err := fn(lpn, slots); err != nil {
			return err
		}
		lsn += int64(n)
		remaining -= int64(n)
	}
	return nil
}

// Write implements ftl.FTL. cgmFTL has no write buffer, so sync is
// irrelevant: every request goes straight to flash, page by page. A
// request (or request fragment) that does not cover a whole page becomes
// a read-modify-write.
func (f *FTL) Write(lsn int64, sectors int, sync bool) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	if f.man.ReadOnly() {
		return ftl.ErrReadOnly
	}
	_ = sync
	f.stats.HostWriteReqs++
	f.stats.HostSectorsWritten += int64(sectors)
	g := f.dev.Geometry()
	small := sectors < f.pageSecs
	if small {
		f.stats.SmallWriteReqs++
		f.stats.SmallHostBytes += int64(sectors) * int64(g.SubpageBytes)
	}
	for i := 0; i < sectors; i++ {
		f.ver.Bump(lsn+int64(i), small)
	}
	if err := f.forEachPage(lsn, sectors, func(lpn int64, slots []int) error {
		if f.pred != nil {
			f.pred.Observe(lpn)
		}
		// Attribution: a small request is charged the full pages it
		// forces flash to program (w(r) = S_full/s for a lone sector).
		var attr int64
		if small {
			attr = int64(g.PageBytes())
		}
		return f.store.WriteSectors(lpn, slots, attr)
	}); err != nil {
		return err
	}
	// Incremental write tax: one bounded collection step while the pool
	// is in debt (no-op for an unbudgeted collector).
	return f.store.Pay()
}

// Read implements ftl.FTL.
func (f *FTL) Read(lsn int64, sectors int) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	f.stats.HostReadReqs++
	f.stats.HostSectorsRead += int64(sectors)
	return f.forEachPage(lsn, sectors, f.store.ReadSectors)
}

// Trim implements ftl.FTL.
func (f *FTL) Trim(lsn int64, sectors int) error {
	if err := f.ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	f.stats.HostTrimReqs++
	return f.forEachPage(lsn, sectors, func(lpn int64, slots []int) error {
		f.store.TrimSectors(lpn, slots)
		for _, slot := range slots {
			f.ver.Clear(lpn*int64(f.pageSecs) + int64(slot))
		}
		return nil
	})
}

// Flush implements ftl.FTL; cgmFTL is unbuffered.
func (f *FTL) Flush() error { return nil }

// Tick implements ftl.FTL: the full-page store's background collection
// (see ftl.Allocator.Tick).
func (f *FTL) Tick() error { return f.store.Tick() }

// Stats implements ftl.FTL.
func (f *FTL) Stats() ftl.Stats {
	s := f.stats
	col := f.store.Collector()
	s.GCSteps = col.Steps()
	s.GCPagesCopied = col.PagesCopied()
	s.GCPreemptions = col.Preemptions()
	s.GCPolicy = col.PolicyName()
	s.MappingBytes = f.store.MappingBytes()
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
func (f *FTL) Check() error { return f.store.Check() }

// Recover implements ftl.FTL: one OOB scan of the device rebuilds the
// coarse table, live-sector masks, per-block valid counts and the version
// tracker. cgmFTL owns every region, so all scanned blocks dispatch to the
// full-page store.
func (f *FTL) Recover() (ftl.MountReport, error) {
	d0 := f.dev.DrainTime()
	blocks, pages, err := ftl.ScanBlocks(f.dev)
	if err != nil {
		return ftl.MountReport{}, err
	}
	var torn int64
	for _, b := range blocks {
		torn += int64(b.Torn)
	}
	sum, err := f.store.Recover(blocks, nil)
	if err != nil {
		return ftl.MountReport{}, err
	}
	if f.pred != nil {
		// Prediction tables are RAM-only and restart cold.
		f.pred.Reset()
	}
	return ftl.MountReport{
		PagesScanned:  pages,
		BlocksAdopted: sum.BlocksAdopted,
		TornPages:     torn,
		StaleSubpages: sum.Stale,
		LiveSectors:   sum.LiveSectors,
		MaxSeq:        sum.MaxSeq,
		Duration:      f.dev.DrainTime().Sub(d0),
	}, nil
}

// VersionOf implements ftl.VersionProber: the version a read of lsn would
// return, 0 when the sector holds no live data.
func (f *FTL) VersionOf(lsn int64) uint32 {
	if lsn < 0 || lsn >= f.ver.Size() {
		return 0
	}
	lpn := lsn / int64(f.pageSecs)
	if !f.store.Mapped(lpn) || f.store.Mask(lpn)&(1<<(lsn%int64(f.pageSecs))) == 0 {
		return 0
	}
	return f.ver.Current(lsn)
}

// Submit implements ftl.Submitter, the host scheduler's non-blocking
// issue path.
func (f *FTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// ChipOf implements ftl.ChipProbe: the chip holding a sector is the chip
// of its mapped logical page.
func (f *FTL) ChipOf(lsn int64) int {
	return f.store.ChipOf(lsn / int64(f.pageSecs))
}
