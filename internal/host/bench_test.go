package host_test

import (
	"fmt"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// nullFTL accepts every command without touching the device, so every
// command completes on arrival and a run measures the scheduler alone.
// Reads route to a chip by sector, as a mapped FTL would route them.
type nullFTL struct{ chips int64 }

func (nullFTL) Name() string                      { return "null" }
func (nullFTL) Write(int64, int, bool) error      { return nil }
func (nullFTL) Read(int64, int) error             { return nil }
func (nullFTL) Trim(int64, int) error             { return nil }
func (nullFTL) Flush() error                      { return nil }
func (nullFTL) Tick() error                       { return nil }
func (nullFTL) Stats() ftl.Stats                  { return ftl.Stats{} }
func (nullFTL) Check() error                      { return nil }
func (nullFTL) Recover() (ftl.MountReport, error) { return ftl.MountReport{}, nil }
func (f nullFTL) ChipOf(lsn int64) int            { return int(lsn / 4 % f.chips) }
func (f nullFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// nullSectors is the logical span the null-FTL workloads address.
const nullSectors = 1 << 16

// newNullScheduler builds a scheduler over a null FTL on a device with
// the quick experiment geometry (8 channels x 4 chips).
func newNullScheduler(tb testing.TB) *host.Scheduler {
	tb.Helper()
	cfg := nand.DefaultConfig()
	cfg.Geometry = nand.Geometry{
		Channels:        8,
		ChipsPerChannel: 4,
		BlocksPerChip:   4,
		PagesPerBlock:   16,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	}
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := host.New(dev, nullFTL{chips: int64(dev.Geometry().Chips())}, host.Config{TickEvery: 64})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newNullGen(tb testing.TB) *workload.Synthetic {
	tb.Helper()
	gen, err := workload.NewSynthetic(testProfile(0.4), nullSectors, 4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

// BenchmarkSchedulerDispatch prices the host scheduler's per-command
// cost — submit, select, dispatch, complete — over a null FTL, in the
// closed loop at queue depth 1 and 32.
func BenchmarkSchedulerDispatch(b *testing.B) {
	for _, qd := range []int{1, 32} {
		b.Run(fmt.Sprintf("QD%d", qd), func(b *testing.B) {
			s := newNullScheduler(b)
			gen := newNullGen(b)
			b.ReportAllocs()
			b.ResetTimer()
			rep, err := s.RunClosedLoop(gen, b.N, qd)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != int64(b.N) {
				b.Fatalf("completed %d of %d", rep.Completed, b.N)
			}
		})
	}
}

// signal is a recycling-aware completion that only reports the event.
type signal chan struct{}

func (s signal) Complete(*host.Command) { s <- struct{}{} }

// TestExternalDispatchAllocs guards the external-mode steady state: once
// the scheduler's freelist, pending list and event heap have grown to the
// window, a submit-dispatch-complete cycle allocates nothing.
func TestExternalDispatchAllocs(t *testing.T) {
	const window = 8
	s := newNullScheduler(t)
	gen := newNullGen(t)
	reqs := make([]workload.Request, 4096)
	for i := range reqs {
		reqs[i] = gen.Next()
	}
	sub := make(chan host.ExtSubmission)
	done := make(signal, window)
	type result struct {
		rep *host.Report
		err error
	}
	ran := make(chan result, 1)
	go func() {
		rep, err := s.RunExternal(sub, nil)
		ran <- result{rep, err}
	}()
	next := 0
	send := func() {
		sub <- host.ExtSubmission{Req: reqs[next%len(reqs)], Complete: done}
		next++
	}
	for i := 0; i < window; i++ {
		send()
	}
	cycle := func() {
		<-done
		send()
	}
	for i := 0; i < 4*len(reqs); i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(2000, cycle)
	close(sub)
	for i := 0; i < window; i++ {
		<-done
	}
	r := <-ran
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rep.Completed != int64(next) {
		t.Fatalf("completed %d of %d", r.rep.Completed, next)
	}
	if avg != 0 {
		t.Errorf("external dispatch allocates %.2f objects per command, want 0", avg)
	}
}
