// Command perfbench is the repository benchmark. It drives one named
// workload through the repository's public packages, checks that the
// outputs are correct, and prints a human-readable report followed, on the
// last line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists; with -trace 1 they are the per-layer metrics, taken from spans and
// counts this package records around its calls into each layer. Run it from
// the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-4k --seed 1 --seconds 10 --trace 0
//
// README.md in this directory documents the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, check failures and report lines.
type report struct {
	result
	problems []string
	lines    []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records a metric.
func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// logf adds a line to the human-readable report.
func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, not %d", trace)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	rep := newReport()
	if err := run(o, rep); err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(out))
}

// logRepeats adds the set-up and remount samples to the report.
func (r *report) logRepeats(setup, remount *repeated) {
	r.logf("set-up %v", setup)
	r.logf("remount %v", remount)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	serve4k.Name:      func(o options, r *report) error { return runServe(serve4k, o, r) },
	serveStriped.Name: func(o options, r *report) error { return runServe(serveStriped, o, r) },
	"sim-figures":     runFigures,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
