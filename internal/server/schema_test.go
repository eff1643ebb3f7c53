package server_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/metrics"
	"espftl/internal/server"
)

// schemaCases are every report struct the stack diffs or merges, with
// the fields that carry a `metrics` tag: the declaration the walker
// must obey, pinned so a dropped tag fails here.
var schemaCases = []struct {
	name   string
	typ    reflect.Type
	tagged map[string]string
}{
	{"ftl.Stats", reflect.TypeOf(ftl.Stats{}), map[string]string{
		"GrownBadBlocks": "gauge", "MappingBytes": "gauge", "Wear": "keep", "SectorBytes": "keep",
	}},
	{"host.Report", reflect.TypeOf(host.Report{}), map[string]string{
		"Depth": "keep", "Queues": "keep", "QueueDepth": "keep", "ChipUtil": "keep",
	}},
	{"server.ClientReport", reflect.TypeOf(server.ClientReport{}), map[string]string{}},
	{"server.GCStats", reflect.TypeOf(server.GCStats{}), map[string]string{}},
}

// fillSchema gives every leaf of v a value derived from a running seed:
// distinct numbers, distinct labels, and distributions with a distinct
// number of observations. Equal seeds build equal, unaliased values.
func fillSchema(t *testing.T, v reflect.Value, seed *int) {
	*seed++
	n := *seed
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSchema(t, v.Field(i), seed)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("label-%d", n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < 3; i++ {
			fillSchema(t, v.Index(i), seed)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 3; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillSchema(t, k, seed)
			fillSchema(t, e, seed)
			v.SetMapIndex(k, e)
		}
	default:
		switch v.Interface().(type) {
		case *metrics.Histogram:
			h := metrics.NewHistogram()
			for i := 0; i < n%7+1; i++ {
				h.Record(time.Duration(i+1) * time.Millisecond)
			}
			v.Set(reflect.ValueOf(h))
		case *metrics.IntHistogram:
			h := metrics.NewIntHistogram(8)
			for i := 0; i < n%7+1; i++ {
				h.Record(i)
			}
			v.Set(reflect.ValueOf(h))
		case *metrics.Series:
			s := metrics.NewSeries(8)
			s.Record(int64(n), float64(n))
			v.Set(reflect.ValueOf(s))
		default:
			t.Fatalf("no filler for %s", v.Type())
		}
	}
}

// schemaLeaf is one leaf of a report value and its declared kind.
type schemaLeaf struct {
	path, kind string
	v          reflect.Value
}

// schemaLeaves lists v's leaves in field order, inheriting a tagged
// field's kind into its nested fields.
func schemaLeaves(v reflect.Value, path, kind string, out []schemaLeaf) []schemaLeaf {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			k := kind
			if tag := f.Tag.Get("metrics"); tag != "" {
				k = tag
			}
			out = schemaLeaves(v.Field(i), path+"."+f.Name, k, out)
		}
		return out
	}
	if kind == "" {
		switch v.Kind() {
		case reflect.String:
			kind = "label"
		case reflect.Pointer, reflect.Slice, reflect.Map:
			kind = "distribution"
		default:
			kind = "counter"
		}
	}
	return append(out, schemaLeaf{path, kind, v})
}

// num reads a numeric leaf as a float64 (exact for the test's values).
func num(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	}
	return v.Float()
}

// mass is a distribution's observation count (histograms) or total
// (numeric slices and maps).
func mass(v reflect.Value) float64 {
	switch d := v.Interface().(type) {
	case *metrics.Histogram:
		return float64(d.Count())
	case *metrics.IntHistogram:
		return float64(d.Count())
	}
	total := 0.0
	if v.Kind() == reflect.Map {
		for it := v.MapRange(); it.Next(); {
			total += num(it.Value())
		}
		return total
	}
	for i := 0; i < v.Len(); i++ {
		total += num(v.Index(i))
	}
	return total
}

// TestCounterSchema is the schema's property test. Every report struct
// is filled with distinct values by reflection; then:
//   - Sub(x, x) is zero in every counter, and gauges, labels, kept
//     fields and distributions keep x's values;
//   - Add(x, y) sums counters, gauges and distributions field by field,
//     while labels and kept fields keep x's;
//   - Add into a zero value copies y, with distributions merged into
//     fresh values rather than aliased.
func TestCounterSchema(t *testing.T) {
	for _, tc := range schemaCases {
		t.Run(tc.name, func(t *testing.T) {
			tagged := map[string]string{}
			for i := 0; i < tc.typ.NumField(); i++ {
				if tag := tc.typ.Field(i).Tag.Get("metrics"); tag != "" {
					tagged[tc.typ.Field(i).Name] = tag
				}
			}
			if !reflect.DeepEqual(tagged, tc.tagged) {
				t.Fatalf("tagged fields %v, want %v", tagged, tc.tagged)
			}
			build := func(seed int) reflect.Value {
				p := reflect.New(tc.typ)
				fillSchema(t, p.Elem(), &seed)
				return p
			}
			leaves := func(p reflect.Value) []schemaLeaf {
				return schemaLeaves(p.Elem(), tc.name, "", nil)
			}

			x, ref := build(100), build(100)
			refLeaves := leaves(ref)
			metrics.Sub(x.Interface(), ref.Interface())
			for i, l := range leaves(x) {
				want := refLeaves[i]
				switch {
				case l.kind == "counter":
					if num(l.v) != 0 {
						t.Errorf("Sub(x, x): counter %s = %v, want 0", l.path, l.v)
					}
				case !reflect.DeepEqual(l.v.Interface(), want.v.Interface()):
					t.Errorf("Sub(x, x): %s %s = %v, want x's %v", l.kind, l.path, l.v, want.v)
				}
			}

			x, y := build(100), build(5000)
			yLeaves := leaves(y)
			metrics.Add(x.Interface(), y.Interface())
			for i, l := range leaves(x) {
				xl, yl := refLeaves[i], yLeaves[i]
				switch l.kind {
				case "counter", "gauge":
					if num(l.v) != num(xl.v)+num(yl.v) {
						t.Errorf("Add: %s %s = %v, want %v + %v", l.kind, l.path, l.v, xl.v, yl.v)
					}
				case "distribution":
					if mass(l.v) != mass(xl.v)+mass(yl.v) {
						t.Errorf("Add: distribution %s holds %v, want %v + %v", l.path, mass(l.v), mass(xl.v), mass(yl.v))
					}
				default:
					if !reflect.DeepEqual(l.v.Interface(), xl.v.Interface()) {
						t.Errorf("Add: %s %s = %v, want x's %v", l.kind, l.path, l.v, xl.v)
					}
				}
			}

			z := reflect.New(tc.typ)
			metrics.Add(z.Interface(), y.Interface())
			for i, l := range leaves(z) {
				yl := yLeaves[i]
				if l.kind == "distribution" {
					if mass(l.v) != mass(yl.v) {
						t.Errorf("Add into zero: distribution %s holds %v, want %v", l.path, mass(l.v), mass(yl.v))
					}
					if l.v.UnsafePointer() == yl.v.UnsafePointer() {
						t.Errorf("Add into zero: distribution %s aliases the source", l.path)
					}
				} else if !reflect.DeepEqual(l.v.Interface(), yl.v.Interface()) {
					t.Errorf("Add into zero: %s %s = %v, want %v", l.kind, l.path, l.v, yl.v)
				}
			}
		})
	}
}
