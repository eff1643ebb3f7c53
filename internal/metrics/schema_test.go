package metrics

import (
	"strings"
	"testing"
	"time"
)

type inner struct {
	N int64
	F float64
}

type report struct {
	Name   string
	Ops    int64
	Inner  inner
	Level  int64 `metrics:"gauge"`
	Size   int   `metrics:"keep"`
	Echo   inner `metrics:"keep"`
	Lat    *Histogram
	Fan    *IntHistogram
	Lanes  []int64
	Status map[uint8]int64
}

func newReport(seed int64) *report {
	r := &report{
		Name: "r", Ops: seed, Inner: inner{seed, float64(seed) / 4},
		Level: seed, Size: 512, Echo: inner{N: seed},
		Lat: NewHistogram(), Fan: NewIntHistogram(4),
		Lanes: []int64{seed, seed}, Status: map[uint8]int64{0: seed},
	}
	r.Lat.Record(time.Duration(seed) * time.Millisecond)
	r.Fan.Record(int(seed % 5))
	return r
}

func TestAddMergesByKind(t *testing.T) {
	a, b := newReport(3), newReport(5)
	b.Name, b.Size = "other", 4096
	b.Lanes = append(b.Lanes, 7)
	b.Status[9] = 1
	Add(a, b)
	if a.Name != "r" || a.Ops != 8 || a.Inner != (inner{8, 2}) || a.Level != 8 {
		t.Fatalf("counters, gauge or label: %+v", a)
	}
	if a.Size != 512 || a.Echo != (inner{N: 3}) {
		t.Fatalf("kept fields changed: size %d, echo %+v", a.Size, a.Echo)
	}
	if a.Lat.Count() != 2 || a.Fan.Count() != 2 || a.Fan.Max() != 3 {
		t.Fatalf("histograms: lat %d, fan %s", a.Lat.Count(), a.Fan)
	}
	if len(a.Lanes) != 3 || a.Lanes[0] != 8 || a.Lanes[2] != 7 || a.Status[0] != 8 || a.Status[9] != 1 {
		t.Fatalf("lanes %v, status %v", a.Lanes, a.Status)
	}
	if b.Lat.Count() != 1 || b.Ops != 5 {
		t.Fatal("Add changed its source")
	}
}

func TestAddIntoZeroCopiesWithoutAliasing(t *testing.T) {
	src := newReport(4)
	var dst report
	Add(&dst, src)
	Add(&dst, *src) // a struct value is accepted as the source too
	if dst.Name != "r" || dst.Size != 512 || dst.Echo != (inner{N: 4}) || dst.Ops != 8 || dst.Level != 8 {
		t.Fatalf("merge into zero: %+v", dst)
	}
	if dst.Lat == src.Lat || dst.Fan == src.Fan || &dst.Lanes[0] == &src.Lanes[0] {
		t.Fatal("merge into zero aliases the source's distributions")
	}
	if dst.Lat.Count() != 2 || dst.Fan.Count() != 2 || dst.Lanes[1] != 8 || dst.Status[0] != 8 || src.Lat.Count() != 1 {
		t.Fatalf("merged distributions: lat %d, fan %d, lanes %v, status %v", dst.Lat.Count(), dst.Fan.Count(), dst.Lanes, dst.Status)
	}
}

func TestSubDiffsCountersOnly(t *testing.T) {
	cur, prev := newReport(10), newReport(4)
	lat := cur.Lat
	Sub(cur, prev)
	if cur.Ops != 6 || cur.Inner != (inner{6, 1.5}) {
		t.Fatalf("counters: %+v", cur)
	}
	if cur.Level != 10 || cur.Size != 512 || cur.Echo != (inner{N: 10}) || cur.Name != "r" {
		t.Fatalf("gauge, kept field or label diffed: %+v", cur)
	}
	if cur.Lat != lat || cur.Lat.Count() != 1 || cur.Lanes[0] != 10 || cur.Status[0] != 10 {
		t.Fatal("Sub touched a distribution")
	}
}

func TestSchemaRejectsUndeclaredFields(t *testing.T) {
	type flagged struct{ On bool }
	type unsigned struct{ N uint64 }
	type names struct{ L []string }
	type badTag struct {
		N int64 `metrics:"max"`
	}
	type textGauge struct {
		S string `metrics:"gauge"`
	}
	for name, f := range map[string]func(){
		"bool field":       func() { Add(&flagged{}, flagged{}) },
		"bool field (Sub)": func() { Sub(&flagged{}, flagged{}) },
		"unsigned field":   func() { Add(&unsigned{}, unsigned{}) },
		"slice of labels":  func() { Add(&names{}, names{}) },
		"unknown tag":      func() { Sub(&badTag{}, badTag{}) },
		"text gauge":       func() { Add(&textGauge{}, textGauge{}) },
		"mismatched types": func() { Add(&inner{}, report{}) },
		"non-pointer dst":  func() { Add(inner{}, inner{}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.HasPrefix(r.(string), "metrics: ") {
					t.Errorf("%s: recovered %v, want a metrics panic", name, r)
				}
			}()
			f()
		}()
	}
}
