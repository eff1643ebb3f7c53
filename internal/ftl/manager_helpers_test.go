package ftl

import "espftl/internal/nand"

// Inspection helpers used only by this package's tests.

// FreeOnChip returns the free-block count of one chip.
func (m *Manager) FreeOnChip(chip int) int { return len(m.free[chip]) }

// Bad reports whether b is retired or pending retirement.
func (m *Manager) Bad(b nand.BlockID) bool { return m.meta[b].bad }

// Victim returns the full block of the given role with the fewest valid
// units (greedy GC policy; subFTL's §4.2 policy is the same selection).
// Blocks in exclude are skipped. The second result is false when no full
// block of that role exists.
func (m *Manager) Victim(role Role, exclude map[nand.BlockID]bool) (nand.BlockID, bool) {
	best := nand.BlockID(-1)
	bestValid := int(^uint(0) >> 1)
	for b := range m.meta {
		id := nand.BlockID(b)
		if m.meta[b].state != StateFull || m.meta[b].role != role || exclude[id] {
			continue
		}
		if m.meta[b].valid < bestValid {
			best, bestValid = id, m.meta[b].valid
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// CountByRole returns how many non-free blocks currently carry each role,
// for region-occupancy accounting.
func (m *Manager) CountByRole() map[Role]int {
	out := make(map[Role]int)
	for b := range m.meta {
		if m.meta[b].state != StateFree {
			out[m.meta[b].role]++
		}
	}
	return out
}

// WearSpread returns the min and max erase counts across all blocks, the
// wear-leveling quality metric.
func (m *Manager) WearSpread() (min, max int) {
	n := m.dev.Geometry().TotalBlocks()
	if n == 0 {
		return 0, 0
	}
	min = m.dev.EraseCount(0)
	max = min
	for b := 1; b < n; b++ {
		e := m.dev.EraseCount(nand.BlockID(b))
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	return min, max
}
