package core_test

import (
	"errors"
	"testing"

	"espftl/internal/experiment"
	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/workload"
)

// TestProgramFailStormDegradesReadOnly: a program-failure storm that eats
// subFTL's spare capacity ends in the typed read-only error — as it does
// for cgmFTL and fgmFTL — instead of an untyped failure to allocate a
// replacement subpage block. The run is espsim's
// `-ftl subFTL -requests 20000 -faults -fault-program 0.002`.
func TestProgramFailStormDegradesReadOnly(t *testing.T) {
	p := fault.DefaultProfile(42)
	p.ProgramFailProb = 0.002
	_, err := experiment.Run(experiment.RunConfig{
		Kind:          experiment.KindSub,
		Requests:      20000,
		Seed:          1,
		Profile:       workload.Varmail(),
		SubRegionFrac: 0.20,
		FaultProfile:  &p,
	})
	if !errors.Is(err, ftl.ErrReadOnly) {
		t.Fatalf("storm ended with %v, want an error wrapping ftl.ErrReadOnly", err)
	}
}
