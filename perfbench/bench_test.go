package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"espftl/internal/ftl"
	"espftl/internal/workload"
)

// shortRun is a served run small enough for a unit test.
func shortRun() serveRun {
	return serveRun{seed: 3, warm: 50 * time.Millisecond, measure: 300 * time.Millisecond, windows: 3}
}

// dropOneWrite acknowledges its drop-th write submission without applying
// it: the fault the remount version check exists to catch.
type dropOneWrite struct {
	*spanFTL
	writes, drop int
}

func (d *dropOneWrite) Submit(r workload.Request, done ftl.CompletionFunc) {
	if r.Op == workload.OpWrite {
		d.writes++
		if d.writes == d.drop {
			done(nil)
			return
		}
	}
	d.spanFTL.Submit(r, done)
}

func TestServedRunPassesChecks(t *testing.T) {
	out, err := serve4k.execute(shortRun())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.problems) > 0 || out.failed > 0 {
		t.Fatalf("a healthy run failed its checks: %d failed, problems %v", out.failed, out.problems)
	}
	if out.opsPerSec() == 0 || len(out.write) == 0 {
		t.Fatalf("nothing measured: %d completed, %d write samples", out.completed, len(out.write))
	}
}

func TestRemountCheckCatchesLostWrite(t *testing.T) {
	run := shortRun()
	run.wrap = func(f ftl.FTL) ftl.FTL { return &dropOneWrite{spanFTL: newSpanFTL(f), drop: 100} }
	out, err := serve4k.execute(run)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	out.endToEnd(serve4k, r)
	if r.Correct {
		t.Fatal("a write acknowledged without being applied passed the checks")
	}
	if !strings.Contains(strings.Join(out.problems, "\n"), "differ after remount") {
		t.Fatalf("the remount version check did not flag the lost write: %v", out.problems)
	}
}

func TestRefusedCommandRaisesFailedFrac(t *testing.T) {
	run := shortRun()
	run.edit = func(c, n int, r workload.Request) workload.Request {
		if c == 0 && n == 50 {
			// One sector past the namespace: the server must refuse it.
			return workload.Request{Op: workload.OpWrite, LSN: 1 << 40, Sectors: 1, Sync: true}
		}
		return r
	}
	out, err := serve4k.execute(run)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	out.endToEnd(serve4k, r)
	if out.failed != 1 {
		t.Fatalf("%d failed commands, want the 1 refused", out.failed)
	}
	if ok := r.Metrics["ok_frac"].Value; ok >= 1 {
		t.Fatalf("ok_frac %v with a refused command", ok)
	}
	if r.Correct {
		t.Fatal("a run with a refused command was reported correct")
	}
}

func TestTracedRunReportsLayers(t *testing.T) {
	run := shortRun()
	run.traced = true
	out, err := serveStriped.execute(run)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	out.endToEnd(serveStriped, r)
	out.perLayer(r)
	r.finish(true)
	if !r.Correct {
		t.Fatalf("traced run failed its checks: %v", r.problems)
	}
	for _, name := range []string{"wire.cmd_ns", "wire.bytes_per_op", "server.frags_per_cmd", "ftl.write_p50_ns",
		"ftl.busy_frac", "nand.page_programs_per_kop", "sim.virt_iops", "mount.pages_scanned"} {
		if v := r.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %v on a traced striped run", name, v)
		}
	}
	// Multi-page commands fan out over both shards.
	if v := r.Metrics["server.frags_per_cmd"].Value; v <= 1 {
		t.Errorf("server.frags_per_cmd = %v, want > 1 on a striped namespace", v)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d per-layer metrics defined", len(r.Metrics), len(perLayer))
	}
}

func TestPercentiles(t *testing.T) {
	var l latencies
	for i := int64(1000); i >= 1; i-- {
		l = append(l, i)
	}
	s := l.sorted()
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
	if d := s.describe("x"); !strings.Contains(d, "p99=") || strings.Contains(d, "p99.9=") {
		t.Errorf("1000 samples must show p99 (10 beyond) and not p99.9 (1 beyond): %s", d)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
