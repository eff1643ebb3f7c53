package ecc

import (
	"fmt"
	"math"
)

// RetryModel describes the controller's stepped read-retry mechanism:
// when a sense fails to decode, the controller re-reads the page with
// shifted read reference voltages, each step recovering part of the raw
// bit error rate (Cai et al. report retention errors are dominated by a
// systematic threshold-voltage shift that reference tuning tracks). The
// model is multiplicative: step i leaves ber * (1-ReliefPerStep)^i.
type RetryModel struct {
	// MaxRetries is the per-read retry-step budget (K).
	MaxRetries int
	// ReliefPerStep is the fraction of the remaining raw BER each
	// reference shift recovers, in (0,1).
	ReliefPerStep float64
}

// DefaultRetry is the configuration the recovery experiments use: five
// steps at 15 % relief each, so the deepest retry reaches data at roughly
// 2.25x the plain ECC limit.
var DefaultRetry = RetryModel{MaxRetries: 5, ReliefPerStep: 0.15}

// Validate reports a descriptive error for nonsensical configurations.
func (m RetryModel) Validate() error {
	if m.MaxRetries < 1 {
		return fmt.Errorf("ecc: retry budget %d must be at least 1", m.MaxRetries)
	}
	if m.ReliefPerStep <= 0 || m.ReliefPerStep >= 1 {
		return fmt.Errorf("ecc: retry relief %v outside (0,1)", m.ReliefPerStep)
	}
	return nil
}

// Effective returns the effective BER after step retry steps (step 0 is
// the original sense).
func (m RetryModel) Effective(ber float64, step int) float64 {
	if step <= 0 {
		return ber
	}
	return ber * math.Pow(1-m.ReliefPerStep, float64(step))
}
