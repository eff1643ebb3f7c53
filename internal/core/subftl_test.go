package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"espftl/internal/ftltest"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

func tinyConfig() Config {
	cfg := DefaultConfig(512)
	cfg.GCReserveBlocks = 3
	cfg.BufferSectors = 32
	return cfg
}

func newEnv(t *testing.T) *ftltest.Env {
	dev := ftltest.TinyDevice(t)
	f, err := New(dev, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &ftltest.Env{Dev: dev, FTL: f, Sectors: 512}
}

func TestConformance(t *testing.T) {
	ftltest.Run(t, newEnv)
}

func TestNewRejectsBadConfig(t *testing.T) {
	dev := ftltest.TinyDevice(t)
	for _, cfg := range []Config{
		{LogicalSectors: 0, SubRegionFrac: 0.2},
		{LogicalSectors: 511, SubRegionFrac: 0.2},
		{LogicalSectors: 512, SubRegionFrac: 0},
		{LogicalSectors: 512, SubRegionFrac: 1.2},
	} {
		if _, err := New(dev, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// The headline behaviour: synchronous small writes cost exactly one
// subpage program each — request WAF 1.0, no RMW, no full-page programs.
func TestSyncSmallWritesAreSubpageWrites(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	// 32 distinct sectors fit within round 0 of the subpage region (6
	// blocks x 8 pages), so no shifts or GC confound the accounting.
	const n = 32
	for i := 0; i < n; i++ {
		if err := f.Write(int64(i*4), 1, true); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Device.SubPrograms != n {
		t.Fatalf("SubPrograms = %d, want %d", s.Device.SubPrograms, n)
	}
	if s.Device.PagePrograms != 0 {
		t.Fatalf("PagePrograms = %d, want 0", s.Device.PagePrograms)
	}
	if s.RMWOps != 0 {
		t.Fatalf("RMWOps = %d, want 0", s.RMWOps)
	}
	if got := s.AvgRequestWAF(); got != 1.0 {
		t.Fatalf("request WAF = %v, want exactly 1.0", got)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// Async small writes with consecutive addresses merge into full-page
// writes routed to the full-page region (paper §4.1).
func TestConsecutiveAsyncSmallWritesMerge(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	for lsn := int64(0); lsn < 4; lsn++ {
		if err := f.Write(lsn, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Device.PagePrograms != 1 || s.Device.SubPrograms != 0 {
		t.Fatalf("programs = %d full / %d sub, want 1/0", s.Device.PagePrograms, s.Device.SubPrograms)
	}
	if got := s.AvgRequestWAF(); got != 1.0 {
		t.Fatalf("merged request WAF = %v, want 1.0", got)
	}
}

// A misaligned large write splits: aligned body to the full-page region,
// head/tail to the subpage region — never an RMW (unlike cgmFTL).
func TestMisalignedLargeWriteSplit(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	g := env.Dev.Geometry()
	ps := g.SubpagesPerPage
	if err := f.Write(2, int64ToInt(int64(ps*2)), false); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.RMWOps != 0 {
		t.Fatalf("RMWOps = %d, want 0", s.RMWOps)
	}
	if s.Device.PagePrograms != 1 {
		t.Fatalf("PagePrograms = %d, want 1 (one aligned body page)", s.Device.PagePrograms)
	}
	// The four partial sectors (2 head + 2 tail) pack into a single
	// multi-subpage SBPI pass.
	if s.Device.SubPrograms != 1 {
		t.Fatalf("SubPrograms = %d, want 1 pass", s.Device.SubPrograms)
	}
	if got := s.Device.BytesWritten; got != int64(g.PageBytes())+4*int64(g.SubpageBytes) {
		t.Fatalf("BytesWritten = %d", got)
	}
	if err := f.Read(2, ps*2); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func int64ToInt(v int64) int { return int(v) }

// The ESP writing policy: the same physical pages are re-programmed round
// after round without erases while data keeps getting invalidated.
func TestSubRegionRoundsWithoutErase(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	g := env.Dev.Geometry()
	// Overwrite one hot sector enough times to fill round 0 of the whole
	// region and force round advancement.
	regionSlots := f.subQuota * g.PagesPerBlock
	for i := 0; i < regionSlots+g.PagesPerBlock; i++ {
		if err := f.Write(7, 1, true); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := f.Stats()
	if s.Device.Erases != 0 {
		t.Fatalf("erases = %d, want 0: rounds must be erase-free", s.Device.Erases)
	}
	if s.Device.SubPrograms < int64(regionSlots) {
		t.Fatalf("SubPrograms = %d", s.Device.SubPrograms)
	}
	// Some page must be in its second pass (Npp > 0).
	secondPass := false
	for spn := int64(0); spn < g.TotalSubpages(); spn++ {
		info := env.Dev.SubpageInfo(nand.SubpageID(spn))
		if info.Programmed && info.Npp > 0 {
			secondPass = true
			break
		}
	}
	if !secondPass {
		t.Fatal("no N1pp+ subpage found; rounds did not advance")
	}
	if err := f.Read(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// Round advancement shifts still-valid subpages to the next subpage of
// their page (paper Fig. 7(c)) instead of corrupting them.
func TestRoundAdvanceShiftsSurvivors(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	g := env.Dev.Geometry()
	// One cold sync sector, then hot churn on another sector to push the
	// region through rounds.
	if err := f.Write(100, 1, true); err != nil {
		t.Fatal(err)
	}
	// Enough churn to exhaust every round of the region, forcing the
	// survivor's block through advancement or GC.
	regionSlots := f.subQuota * g.SubpagesPerBlock()
	for i := 0; i < regionSlots+f.subQuota*g.PagesPerBlock; i++ {
		if err := f.Write(7, 1, true); err != nil {
			t.Fatal(err)
		}
		// Read the cold sector continuously: it must never be corrupted.
		if i%64 == 0 {
			if err := f.Read(100, 1); err != nil {
				t.Fatalf("cold sector lost after %d churn writes: %v", i, err)
			}
		}
	}
	s := f.Stats()
	if s.SubShifts == 0 && s.Evictions == 0 && s.GCMovedSectors == 0 {
		t.Fatal("survivor was never shifted, moved nor evicted — policy not exercised")
	}
	if err := f.Read(100, 1); err != nil {
		t.Fatal(err)
	}
}

// GC hot/cold separation: updated-at-least-once subpages stay in the
// subpage region, never-updated ones are evicted to the full-page region.
func TestGCHotColdSeparation(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	g := env.Dev.Geometry()
	rng := sim.NewRNG(9)
	// Cold set: written once. Hot set: rewritten constantly.
	for lsn := int64(200); lsn < 232; lsn++ {
		if err := f.Write(lsn, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	churn := f.subQuota * g.SubpagesPerBlock() * 2
	for i := 0; i < churn; i++ {
		if err := f.Write(rng.Int63n(8), 1, true); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.GCInvocations == 0 {
		t.Fatal("no subpage-region GC")
	}
	if s.Evictions == 0 {
		t.Fatal("cold subpages never evicted to the full-page region")
	}
	// Cold data must now live in the full-page region and read fine.
	for lsn := int64(200); lsn < 232; lsn++ {
		if err := f.Read(lsn, 1); err != nil {
			t.Fatalf("cold lsn %d: %v", lsn, err)
		}
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// Retention management: data parked in the subpage region for months is
// moved to the full-page region before the 1-month ESP retention
// capability expires, so it remains readable arbitrarily later.
func TestRetentionScrubPreservesData(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	clock := env.Dev.Clock()
	if err := f.Write(50, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(51, 1, true); err != nil {
		t.Fatal(err)
	}
	// Park for 10 months in 1-day steps, ticking like the harness does.
	for day := 0; day < 300; day++ {
		clock.Advance(24 * time.Hour)
		if err := f.Tick(); err != nil {
			t.Fatalf("tick day %d: %v", day, err)
		}
	}
	s := f.Stats()
	if s.RetentionMoves == 0 {
		t.Fatal("retention manager never moved the parked data")
	}
	if err := f.Read(50, 2); err != nil {
		t.Fatalf("parked data unreadable after 10 months: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: with the retention manager disabled, the same
// scenario loses the data to an uncorrectable ECC error — demonstrating
// why §4.3 exists.
func TestRetentionDisabledLosesData(t *testing.T) {
	dev := ftltest.TinyDevice(t)
	cfg := tinyConfig()
	cfg.DisableRetention = true
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	// Churn a tiny hot set past round 0's capacity so its newest copies
	// land at subpage index >= 1 — N1pp-or-worse data.
	churn := f.subQuota*g.PagesPerBlock + 16
	for i := 0; i < churn; i++ {
		if err := f.Write(int64(i%4), 1, true); err != nil {
			t.Fatal(err)
		}
	}
	n1pp := false
	for s := int64(0); s < g.TotalSubpages(); s++ {
		info := dev.SubpageInfo(nand.SubpageID(s))
		if info.Programmed && !info.Destroyed && info.Npp > 0 {
			n1pp = true
			break
		}
	}
	if !n1pp {
		t.Fatal("test setup produced no live N1pp+ subpage")
	}
	dev.Clock().Advance(6 * 30 * 24 * time.Hour)
	for i := 0; i < 10; i++ {
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// The churned sectors were last programmed at subpage index >= 1
	// (N1pp or worse); after six months they must be gone.
	var readErr error
	for i := int64(0); i < 4 && readErr == nil; i++ {
		readErr = f.Read(i, 1)
	}
	if readErr == nil {
		t.Fatal("every read succeeded despite 6-month-old N1pp+ subpage data without retention management")
	}
	if !errors.Is(readErr, nand.ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", readErr)
	}
}

// The hybrid mapping claim (§4.2): subFTL's translation memory is far
// below fgmFTL's all-fine mapping for the same logical space, because only
// the 20% subpage region is fine-grained — and the hash only needs one
// entry per region page.
func TestMappingMemoryBelowFGM(t *testing.T) {
	env := newEnv(t)
	s := env.FTL.Stats()
	fineBytes := int64(512 * 8) // what fgmFTL would need
	if s.MappingBytes >= fineBytes*2 {
		t.Fatalf("subFTL mapping = %d B, not small vs fine-grained %d B", s.MappingBytes, fineBytes)
	}
	f := env.FTL.(*FTL)
	entries, _ := f.HashLoad()
	if entries != 0 {
		t.Fatalf("fresh FTL has %d hash entries", entries)
	}
}

// Region accounting: the subpage region must never exceed its quota
// (plus the transient GC destination).
func TestSubRegionQuota(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	rng := sim.NewRNG(21)
	for i := 0; i < 4096; i++ {
		if err := f.Write(rng.Int63n(256), 1, rng.Bool(0.9)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.SubRegionBlocks() > f.subQuota+1 {
		t.Fatalf("subpage region holds %d blocks, quota %d", f.SubRegionBlocks(), f.subQuota)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// Cross-region consistency: a sector bouncing between sync (subpage
// region) and merged-async (full region) writes must always read its
// newest version.
func TestCrossRegionOverwrites(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	for round := 0; round < 20; round++ {
		// Sync write sector 0 → subpage region.
		if err := f.Write(0, 1, true); err != nil {
			t.Fatal(err)
		}
		if err := f.Read(0, 1); err != nil {
			t.Fatalf("round %d after sync: %v", round, err)
		}
		// Complete the page async → merged full-page write.
		for lsn := int64(0); lsn < 4; lsn++ {
			if err := f.Write(lsn, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Read(0, 4); err != nil {
			t.Fatalf("round %d after merge: %v", round, err)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestHotColdDisabledStillCorrect(t *testing.T) {
	dev := ftltest.TinyDevice(t)
	cfg := tinyConfig()
	cfg.DisableHotColdGC = true
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	rng := sim.NewRNG(31)
	written := make(map[int64]bool)
	for i := 0; i < f.subQuota*g.SubpagesPerBlock()*2; i++ {
		lsn := rng.Int63n(64)
		if err := f.Write(lsn, 1, true); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		written[lsn] = true
	}
	s := f.Stats()
	if s.GCInvocations > 0 && s.Evictions == 0 {
		t.Fatal("hot/cold disabled must evict everything during GC")
	}
	for lsn := range written {
		if err := f.Read(lsn, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNameAndErrors(t *testing.T) {
	env := newEnv(t)
	if env.FTL.Name() != "subFTL" {
		t.Fatalf("Name = %q", env.FTL.Name())
	}
	err := env.FTL.Write(-1, 1, false)
	if err == nil || !strings.Contains(err.Error(), "outside logical space") {
		t.Fatalf("bounds error = %v", err)
	}
}

// slotSet.next must find the lowest matching slot in [lo, hi) across
// word boundaries, honour hi inside a word, and treat bits past the
// stripe as absent.
func TestSlotSetNext(t *testing.T) {
	s := newSlotSet(130)
	for _, i := range []int{3, 63, 64, 129} {
		s.set(i)
	}
	for _, c := range []struct {
		lo, hi int
		want   bool
		got    int
	}{
		{0, 130, true, 3},
		{4, 130, true, 63},
		{64, 130, true, 64},
		{65, 130, true, 129},
		{65, 129, true, -1},
		{0, 3, true, -1},
		{0, 130, false, 0},
		{63, 130, false, 65},
		{129, 130, false, -1},
		{5, 5, true, -1},
	} {
		if got := s.next(c.lo, c.hi, c.want); got != c.got {
			t.Errorf("next(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.want, got, c.got)
		}
	}
	s.clear(63)
	if s.has(63) || !s.has(64) {
		t.Error("clear touched the wrong slot")
	}
}
