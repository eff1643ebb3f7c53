// Package gc is the pluggable garbage-collection policy engine: victim
// selection is a Policy over a read-only per-block View, and the actual
// relocation work is driven by an incremental Collector that copies a
// bounded number of pages per step and checkpoints its victim so a
// collection can be preempted by host traffic and resumed later.
//
// The package deliberately knows nothing about any particular FTL: an
// FTL exposes its block bookkeeping through View and its relocation
// machinery through Target (collector.go), and the policies stay pure
// functions of the view. That keeps every policy usable — and testable —
// against all three FTLs and against synthetic fixtures.
package gc

import (
	"fmt"
	"sort"

	"espftl/internal/nand"
	"espftl/internal/sim"
)

// View is the read-only per-block snapshot a policy selects over. A
// block is in the selection set iff Candidate reports true (for the
// FTLs this means: full, role-matching, not bad, and not the block a
// collector is already draining).
type View interface {
	// Blocks is the number of physical blocks; block IDs are [0, Blocks).
	Blocks() int
	// Candidate reports whether b is selectable as a victim.
	Candidate(b nand.BlockID) bool
	// Valid is the number of still-live mapping units in b (subpage
	// sectors for the sector-mapped FTLs, pages for the page-mapped
	// store; UnitsPerBlock gives the denominator either way).
	Valid(b nand.BlockID) int
	// UnitsPerBlock is the capacity of a block in the same units Valid
	// counts — the u = Valid/UnitsPerBlock utilisation denominator.
	UnitsPerBlock() int
	// EraseCount is b's lifetime erase count (wear input).
	EraseCount(b nand.BlockID) int
	// EffectiveWear is b's effective wear in deep-erase equivalents: with
	// adaptive erase (internal/lifetime) shallow erases stress a block by
	// their depth rather than a whole cycle, so two blocks with equal
	// EraseCount can differ in remaining life. Policies that weigh wear
	// should prefer this over EraseCount; on a device that only erases
	// deep it equals float64(EraseCount(b)).
	EffectiveWear(b nand.BlockID) float64
	// LastInvalidate is the virtual time b last lost a valid unit (or
	// was sealed, whichever is later) — the "age" input of cost-benefit.
	LastInvalidate(b nand.BlockID) sim.Time
	// Now is the current virtual time.
	Now() sim.Time
}

// Policy picks a victim block from a view. Implementations must be
// deterministic: same view, same answer.
type Policy interface {
	Name() string
	// SelectVictim returns the chosen victim, or ok=false when the view
	// has no candidate at all.
	SelectVictim(v View) (nand.BlockID, bool)
}

// Greedy is classic min-valid selection: the candidate with the fewest
// live units wins, lowest block ID on ties. This replicates the
// hardcoded selection the FTLs shipped with (ftl.Manager.Victim), so a
// greedy-configured collector is bit-identical to the legacy path.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "greedy" }

// SelectVictim implements Policy.
func (Greedy) SelectVictim(v View) (nand.BlockID, bool) {
	best, bestValid, found := nand.BlockID(0), 0, false
	for i := 0; i < v.Blocks(); i++ {
		b := nand.BlockID(i)
		if !v.Candidate(b) {
			continue
		}
		if valid := v.Valid(b); !found || valid < bestValid {
			best, bestValid, found = b, valid, true
		}
	}
	return best, found
}

// reclaimCutoff returns the maximum valid count an age-aware policy may
// select, or ok=false when the view has no candidate. Age terms span many
// orders of magnitude (a hot block's age resets every few microseconds
// while a cold block ages for the whole run), so unconstrained age scoring
// degenerates into cleaning ~full cold blocks — each erase reclaiming
// almost nothing, spiralling write amplification and erase wear under pool
// pressure. The cutoff requires a victim to reclaim at least half of what
// the best (min-valid) candidate would, bounding the cleaning cost at 2x
// greedy while leaving age free to reorder among reasonable victims.
func reclaimCutoff(v View) (int, bool) {
	minValid, found := 0, false
	for i := 0; i < v.Blocks(); i++ {
		b := nand.BlockID(i)
		if !v.Candidate(b) {
			continue
		}
		if valid := v.Valid(b); !found || valid < minValid {
			minValid, found = valid, true
		}
	}
	if !found {
		return 0, false
	}
	return minValid + (v.UnitsPerBlock()-minValid)/2, true
}

// CostBenefit is Rosenblum-style age-weighted selection: maximise
// benefit/cost = age * (1-u) / 2u, where u is the block's utilisation
// and age is the time since it last lost a valid unit. Cold blocks that
// have stopped being invalidated become attractive even at moderate u,
// which is exactly what hot/cold-skewed workloads need; a fully dead
// block (u = 0) is free space and always wins immediately. Selection is
// restricted to candidates above the reclaim cutoff (see reclaimCutoff)
// so the age term cannot drive the cleaner into near-full cold blocks.
type CostBenefit struct{}

// Name implements Policy.
func (CostBenefit) Name() string { return "cost-benefit" }

// SelectVictim implements Policy.
func (CostBenefit) SelectVictim(v View) (nand.BlockID, bool) {
	cutoff, ok := reclaimCutoff(v)
	if !ok {
		return 0, false
	}
	var (
		best      nand.BlockID
		bestScore float64
		found     bool
	)
	units := float64(v.UnitsPerBlock())
	now := v.Now()
	for i := 0; i < v.Blocks(); i++ {
		b := nand.BlockID(i)
		if !v.Candidate(b) {
			continue
		}
		valid := v.Valid(b)
		if valid == 0 {
			// Free space at zero copy cost: nothing can score higher.
			return b, true
		}
		if valid > cutoff {
			continue
		}
		u := float64(valid) / units
		age := float64(now - v.LastInvalidate(b))
		if age < 0 {
			age = 0
		}
		// The canonical segment-cleaning score. Reading the block costs
		// 1, writing back the live fraction costs u, hence 2u in the
		// denominator under the read-modify-write cost model.
		score := age * (1 - u) / (2 * u)
		if !found || score > bestScore {
			best, bestScore, found = b, score, true
		}
	}
	return best, found
}

// WindowedGreedy restricts greedy selection to the W oldest candidates
// by last-invalidate time. The window makes selection age-aware (hot
// blocks still being invalidated get time to bleed out before they are
// cleaned) at O(n log n) without the float scoring of cost-benefit. Like
// cost-benefit, the candidate set is bounded by the reclaim cutoff so the
// oldest-first window cannot fill up with near-full cold blocks.
type WindowedGreedy struct {
	// W is the window size; <= 0 means DefaultWindow.
	W int
}

// DefaultWindow is the windowed-greedy candidate window when none is
// configured.
const DefaultWindow = 8

// Name implements Policy.
func (p WindowedGreedy) Name() string { return "windowed" }

// SelectVictim implements Policy.
func (p WindowedGreedy) SelectVictim(v View) (nand.BlockID, bool) {
	w := p.W
	if w <= 0 {
		w = DefaultWindow
	}
	cutoff, ok := reclaimCutoff(v)
	if !ok {
		return 0, false
	}
	var cands []nand.BlockID
	for i := 0; i < v.Blocks(); i++ {
		if b := nand.BlockID(i); v.Candidate(b) && v.Valid(b) <= cutoff {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	// Oldest first; block ID breaks last-invalidate ties so the sort —
	// and therefore the selection — is fully deterministic.
	sort.Slice(cands, func(i, j int) bool {
		ti, tj := v.LastInvalidate(cands[i]), v.LastInvalidate(cands[j])
		if ti != tj {
			return ti < tj
		}
		return cands[i] < cands[j]
	})
	if len(cands) > w {
		cands = cands[:w]
	}
	best, bestValid := cands[0], v.Valid(cands[0])
	for _, b := range cands[1:] {
		if valid := v.Valid(b); valid < bestValid {
			best, bestValid = b, valid
		}
	}
	return best, true
}

// Options is the GC configuration every FTL accepts: which policy to
// select victims with, how many pages one background step may copy, and
// how much free-block slack triggers background collection.
type Options struct {
	// Policy is the victim-selection policy name: "greedy" (default),
	// "cost-benefit", or "windowed".
	Policy string
	// StepPages bounds the pages copied per background collection step;
	// 0 keeps background steps whole-block. Foreground (out-of-space)
	// collection always drains a full victim regardless.
	StepPages int
	// BackgroundSlack starts background collection while FreeCount is
	// still this many blocks above the out-of-space reserve, so steps
	// run from Tick (background-class, read-yielding) instead of
	// stalling a host write. 0 disables background collection.
	BackgroundSlack int
	// Window overrides the windowed policy's candidate window.
	Window int
}

// NewPolicy resolves a policy name. The empty string is greedy — the
// legacy behaviour — so zero-valued Options change nothing.
func NewPolicy(opts Options) (Policy, error) {
	switch opts.Policy {
	case "", "greedy":
		return Greedy{}, nil
	case "cost-benefit", "costbenefit", "cb":
		return CostBenefit{}, nil
	case "windowed", "windowed-greedy":
		return WindowedGreedy{W: opts.Window}, nil
	}
	return nil, fmt.Errorf("gc: unknown policy %q (greedy, cost-benefit, windowed)", opts.Policy)
}
