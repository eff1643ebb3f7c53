package ftl

import (
	"errors"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/gc"
	"espftl/internal/nand"
)

// testAllocator builds a full-page-role allocator whose refill policy does
// nothing and whose collector never runs.
func testAllocator(dev *nand.Device, reserve, hostWidth, gcWidth int) (*Allocator, *Manager, *Stats) {
	man := NewManager(dev)
	stats := &Stats{}
	a := NewAllocator(dev, man, stats, RoleFull, TagFull, dev.Geometry().PagesPerBlock, reserve, hostWidth, gcWidth,
		func() error { return nil },
		func(nand.BlockID) {},
		func(nand.BlockID) (int, bool, error) { return 0, true, nil })
	return a, man, stats
}

func program(t *testing.T, a *Allocator, forGC bool) nand.PageID {
	t.Helper()
	stamps := a.Stamps()
	defer a.PutStamps(stamps)
	for i := range stamps {
		stamps[i] = nand.Padding
	}
	p, err := a.Program(stamps, forGC, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllocatorRotation: consecutive programs rotate over the stripe's
// points in order, point i is pinned to chip i*chips/width, and a second
// lap appends to the blocks the first lap opened.
func TestAllocatorRotation(t *testing.T) {
	chips := testDevice(t).Geometry().Chips()
	for _, width := range []int{1, 2, chips} {
		dev := testDevice(t)
		g := dev.Geometry()
		a, _, _ := testAllocator(dev, 2, width, 1)
		first := make([]nand.BlockID, width)
		for i := 0; i < width; i++ {
			p := program(t, a, false)
			first[i] = g.BlockOfPage(p)
			if got, want := g.ChipOf(first[i]), i*chips/width; got != want {
				t.Errorf("width %d: point %d on chip %d, want %d", width, i, got, want)
			}
			if g.PageIndex(p) != 0 {
				t.Errorf("width %d: point %d started at page %d", width, i, g.PageIndex(p))
			}
		}
		for i := 0; i < width; i++ {
			p := program(t, a, false)
			if g.BlockOfPage(p) != first[i] || g.PageIndex(p) != 1 {
				t.Errorf("width %d: lap 2 point %d wrote block %d page %d, want block %d page 1",
					width, i, g.BlockOfPage(p), g.PageIndex(p), first[i])
			}
		}
		if a.Held() != width {
			t.Errorf("width %d: holds %d blocks", width, a.Held())
		}
	}
}

// TestAllocatorRollover: a point whose block is full marks it full (a GC
// candidate) and opens a fresh block on its next turn.
func TestAllocatorRollover(t *testing.T) {
	dev := testDevice(t)
	g := dev.Geometry()
	a, man, _ := testAllocator(dev, 2, 1, 1)
	b := g.BlockOfPage(program(t, a, false))
	for i := 1; i < g.PagesPerBlock; i++ {
		program(t, a, false)
	}
	if man.State(b) != StateOpen {
		t.Fatalf("filled block in state %v before rollover", man.State(b))
	}
	next := g.BlockOfPage(program(t, a, false))
	if next == b || man.State(b) != StateFull || man.State(next) != StateOpen {
		t.Fatalf("rollover: old %d state %v, new %d state %v", b, man.State(b), next, man.State(next))
	}
	if a.Held() != 2 {
		t.Fatalf("holds %d blocks after rollover, want 2", a.Held())
	}
}

// TestAllocatorBorrow: a GC destination refill with the free pool at its
// recovery margin reuses another point's open block — but only with a
// budgeted collector; unbudgeted collection always opens a fresh block,
// as does a budgeted one above the margin.
func TestAllocatorBorrow(t *testing.T) {
	for _, c := range []struct {
		name     string
		budgeted bool
		free     int
		borrow   bool
	}{
		{"budgeted at margin", true, 4, true},
		{"budgeted above margin", true, 5, false},
		{"unbudgeted at margin", false, 4, false},
	} {
		dev := testDevice(t)
		g := dev.Geometry()
		a, man, _ := testAllocator(dev, 6, 1, 2)
		if c.budgeted {
			if err := a.SetGC(gc.Options{StepPages: 2}); err != nil {
				t.Fatal(err)
			}
		}
		open := g.BlockOfPage(program(t, a, true))
		for man.FreeCount() > c.free {
			man.Alloc(RoleFull)
		}
		got := g.BlockOfPage(program(t, a, true))
		if borrowed := got == open; borrowed != c.borrow {
			t.Errorf("%s: second destination point wrote block %d (first point's %d), borrowed %v, want %v",
				c.name, got, open, borrowed, c.borrow)
		}
	}
}

// TestAllocatorRetireOnProgramFail: a program failure retires only the
// failed point's block and drops only that point; the program replays on
// the stripe's next point and the other point keeps its block.
func TestAllocatorRetireOnProgramFail(t *testing.T) {
	dev := faultyDevice(t, fault.Profile{Seed: 1})
	g := dev.Geometry()
	a, man, stats := testAllocator(dev, 2, 2, 1)
	b0 := g.BlockOfPage(program(t, a, false))
	b1 := g.BlockOfPage(program(t, a, false))
	program(t, a, false) // point 0 again; point 1 is next
	dev.Injector().Script(fault.Event{Kind: fault.KindProgram, Chip: -1, Block: int(b1)})
	p := program(t, a, false)
	if !man.Bad(b1) || man.State(b1) != StateFull {
		t.Fatalf("failed block %d: bad %v state %v, want retired and full", b1, man.Bad(b1), man.State(b1))
	}
	if man.Bad(b0) || g.BlockOfPage(p) != b0 || g.PageIndex(p) != 2 {
		t.Fatalf("replay wrote block %d page %d (bad %v), want block %d page 2", g.BlockOfPage(p), g.PageIndex(p), man.Bad(b0), b0)
	}
	if stats.ProgramFailMoves != 1 {
		t.Fatalf("ProgramFailMoves = %d, want 1", stats.ProgramFailMoves)
	}
	if fresh := g.BlockOfPage(program(t, a, false)); fresh == b1 || fresh == b0 {
		t.Fatalf("dropped point reopened on block %d", fresh)
	}
}

// TestAllocatorReplayBound: consecutive program failures are replayed on
// fresh blocks at most MaxProgramReplays times, then surface.
func TestAllocatorReplayBound(t *testing.T) {
	dev := faultyDevice(t, fault.Profile{Seed: 1, ProgramFailProb: 1})
	a, man, stats := testAllocator(dev, 2, 1, 1)
	_, err := a.Program(a.Stamps(), false, false)
	if !errors.Is(err, nand.ErrProgramFail) {
		t.Fatalf("Program under a failure storm: %v, want ErrProgramFail", err)
	}
	if stats.ProgramFailMoves != MaxProgramReplays || man.BadCount() != MaxProgramReplays {
		t.Fatalf("replays %d, retired %d, want %d each", stats.ProgramFailMoves, man.BadCount(), MaxProgramReplays)
	}
}
