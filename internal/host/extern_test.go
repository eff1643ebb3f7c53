package host_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// doneFunc adapts a callback to host.Completion. The scheduler recycles
// the command record once Complete returns, so the callback gets a copy
// it may keep.
type doneFunc func(c *host.Command)

func (f doneFunc) Complete(c *host.Command) {
	cp := *c
	f(&cp)
}

// pump feeds n generated requests through an external scheduler run,
// keeping up to window submissions outstanding, and returns every
// completed command in completion order.
func pump(t *testing.T, s *host.Scheduler, gen workload.Generator, n, window int, gate *sim.Gate) ([]*host.Command, *host.Report) {
	t.Helper()
	sub := make(chan host.ExtSubmission)
	var mu sync.Mutex
	var done []*host.Command
	slots := make(chan struct{}, window)
	go func() {
		for i := 0; i < n; i++ {
			slots <- struct{}{}
			sub <- host.ExtSubmission{Req: gen.Next(), Complete: doneFunc(func(c *host.Command) {
				mu.Lock()
				done = append(done, c)
				mu.Unlock()
				<-slots
			})}
		}
		close(sub)
	}()
	rep, err := s.RunExternal(sub, gate)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	return done, rep
}

// pumpOrdered is pump with a producer that fixes the order of arrivals
// against completions: one window of submissions is queued before the
// run starts, and each later submission is sent from the completion
// callback of an earlier one, on the scheduler goroutine. The channel is
// buffered to the window, so those sends never block, and it is closed
// right after the last submission. No goroutine races the event loop's
// receive, so two runs see the identical event order.
func pumpOrdered(t *testing.T, s *host.Scheduler, gen workload.Generator, n, window int, gate *sim.Gate) ([]*host.Command, *host.Report) {
	t.Helper()
	sub := make(chan host.ExtSubmission, window)
	var done []*host.Command
	sent := 0
	var send func()
	onDone := doneFunc(func(c *host.Command) {
		done = append(done, c)
		send()
	})
	send = func() {
		if sent == n {
			return
		}
		sub <- host.ExtSubmission{Req: gen.Next(), Complete: onDone}
		sent++
		if sent == n {
			close(sub)
		}
	}
	if n == 0 {
		close(sub)
	}
	for sent < window && sent < n {
		send()
	}
	rep, err := s.RunExternal(sub, gate)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	return done, rep
}

// TestRunExternalCompletesAll drives a mixed workload through the
// channel path and checks the full accounting: every submission
// completes exactly once, error-free, and the report balances.
func TestRunExternalCompletesAll(t *testing.T) {
	const n = 4000
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	done, rep := pump(t, s, newGen(t, fill, 0.4, 7), n, 8, nil)
	if len(done) != n {
		t.Fatalf("completed %d of %d submissions", len(done), n)
	}
	if rep.Submitted != n || rep.Completed != n {
		t.Fatalf("report: submitted %d completed %d (want %d)", rep.Submitted, rep.Completed, n)
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("report: %d errors, %d rejected on a healthy device", rep.Errors, rep.Rejected)
	}
	for i, c := range done {
		if c.Err != nil {
			t.Fatalf("command %d completed with error %v", i, c.Err)
		}
		if c.Complete < c.Arrival {
			t.Fatalf("command %d completed before it arrived", i)
		}
	}
	if rep.Background == 0 {
		t.Fatal("maintenance ticks never ran")
	}
	if err := f.Check(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestRunExternalDeterministic: the channel path stays deterministic
// when arrival order is fixed — two identical runs agree bit-for-bit.
// The producer must fix the order of arrivals against completions too
// (pumpOrdered): pump's producer goroutine races the event loop's
// non-blocking receive, which legitimately changes OutOfOrder.
func TestRunExternalDeterministic(t *testing.T) {
	run := func() (ftl.Stats, sim.Time, int64) {
		dev, f, fill := newRig(t, "subFTL")
		s, err := host.New(dev, f, host.Config{TickEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		_, rep := pumpOrdered(t, s, newGen(t, fill, 0.4, 11), 2500, 8, nil)
		return f.Stats(), dev.DrainTime(), rep.OutOfOrder
	}
	s1, d1, o1 := run()
	s2, d2, o2 := run()
	if s1 != s2 || d1 != d2 || o1 != o2 {
		t.Fatalf("two identical external runs diverged:\n%+v drain=%v ooo=%d\n%+v drain=%v ooo=%d",
			s1, d1, o1, s2, d2, o2)
	}
}

// failingFTL injects an FTL error on every sync write, exercising the
// external path's per-command error delivery.
type failingFTL struct {
	ftl.FTL
	fails int64
}

var errInjected = errors.New("injected program failure")

func (f *failingFTL) Write(lsn int64, sectors int, sync bool) error {
	if sync {
		f.fails++
		return errInjected
	}
	return f.FTL.Write(lsn, sectors, sync)
}

func (f *failingFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// TestRunExternalErrorDelivery: a failed command completes carrying its
// error instead of aborting the run, and the report counts it.
func TestRunExternalErrorDelivery(t *testing.T) {
	dev, inner, fill := newRig(t, "subFTL")
	f := &failingFTL{FTL: inner}
	s, err := host.New(dev, f, host.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	done, rep := pump(t, s, newGen(t, fill, 0.0, 3), n, 4, nil)
	if len(done) != n {
		t.Fatalf("completed %d of %d", len(done), n)
	}
	var failed int64
	for _, c := range done {
		if c.Err != nil {
			if !errors.Is(c.Err, errInjected) {
				t.Fatalf("unexpected error: %v", c.Err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no sync writes generated; test is vacuous")
	}
	if failed != f.fails || rep.Errors != failed {
		t.Fatalf("error accounting: %d command errors, %d injections, report says %d",
			failed, f.fails, rep.Errors)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d despite errors", rep.Completed, n)
	}
}

// TestRunExternalRejection: an unschedulable request is refused before
// queueing; its callback still fires, carrying the error.
func TestRunExternalRejection(t *testing.T) {
	dev, f, _ := newRig(t, "cgmFTL")
	s, err := host.New(dev, f, host.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub := make(chan host.ExtSubmission)
	var rejected *host.Command
	go func() {
		sub <- host.ExtSubmission{
			Req:      workload.Request{Op: workload.OpAdvance, Gap: 1},
			Complete: doneFunc(func(c *host.Command) { rejected = c }),
		}
		sub <- host.ExtSubmission{
			Req:      workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4},
			Complete: doneFunc(func(*host.Command) {}),
		}
		close(sub)
	}()
	rep, err := s.RunExternal(sub, nil)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	if rejected == nil || rejected.Err == nil {
		t.Fatal("rejected submission did not deliver its error")
	}
	if rep.Rejected != 1 || rep.Submitted != 1 || rep.Completed != 1 {
		t.Fatalf("report: rejected=%d submitted=%d completed=%d", rep.Rejected, rep.Submitted, rep.Completed)
	}
}

// TestRunExternalFlashBytes: external mode attributes device program
// bytes to the commands that caused them; the per-command deltas must
// sum to the device counter's growth.
func TestRunExternalFlashBytes(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Counters().BytesWritten
	done, _ := pump(t, s, newGen(t, fill, 0.2, 5), 2000, 8, nil)
	var sum int64
	for _, c := range done {
		if c.FlashBytes < 0 {
			t.Fatalf("negative FlashBytes %d", c.FlashBytes)
		}
		sum += c.FlashBytes
	}
	growth := dev.Counters().BytesWritten - before
	// Background ticks also program (scrub relocations), so the host sum
	// is bounded by — and on this workload the bulk of — the growth.
	if sum > growth {
		t.Fatalf("host-attributed bytes %d exceed device growth %d", sum, growth)
	}
	if sum == 0 {
		t.Fatal("no flash bytes attributed on a write-heavy workload")
	}
}

// TestRunExternalPaced: a pacing gate neither loses nor reorders work;
// with an aggressive speedup the run finishes promptly but still passes
// through the timer path.
func TestRunExternalPaced(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	gate := sim.NewGate(1e6, dev.Clock().Now()) // 1 virtual ms per wall ns: brisk but paced
	const n = 800
	done, rep := pump(t, s, newGen(t, fill, 0.4, 9), n, 8, gate)
	if len(done) != n || rep.Completed != n {
		t.Fatalf("paced run completed %d/%d (report %d)", len(done), n, rep.Completed)
	}
}

// TestRunExternalConcurrentProducers hammers the submission channel from
// several goroutines at once — the -race CI job proves the only shared
// state is the channel itself.
func TestRunExternalConcurrentProducers(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 500
	sub := make(chan host.ExtSubmission)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := newGen(t, fill, 0.5, uint64(100+p))
			window := make(chan struct{}, 4)
			for i := 0; i < perProducer; i++ {
				window <- struct{}{}
				sub <- host.ExtSubmission{Req: gen.Next(), Complete: doneFunc(func(c *host.Command) {
					completed.Add(1)
					<-window
				})}
			}
			for i := 0; i < cap(window); i++ { // drain: all in-flight done
				window <- struct{}{}
			}
		}(p)
	}
	go func() { wg.Wait(); close(sub) }()
	rep, err := s.RunExternal(sub, nil)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	if got := completed.Load(); got != producers*perProducer {
		t.Fatalf("completed %d of %d", got, producers*perProducer)
	}
	if rep.Completed != producers*perProducer {
		t.Fatalf("report completed %d", rep.Completed)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}
