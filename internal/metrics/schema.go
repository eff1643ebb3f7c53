package metrics

import (
	"fmt"
	"reflect"
)

// The counter schema. Every report struct the stack diffs or merges
// (ftl.Stats with its nand.Counters, host.Report, the server's GCStats
// and ClientReport) goes through Add and Sub, which read each field's
// kind from its type:
//
//   - signed integers and floats are counters: Add sums them, Sub
//     diffs them;
//   - strings are labels: dst keeps its value, or takes src's if its
//     own is empty;
//   - nested structs are walked field by field;
//   - *Histogram, *IntHistogram, numeric slices and numeric-valued maps
//     are distributions: Add merges them bucket by bucket, into a fresh
//     one when dst's is nil so the inputs are never aliased; Sub keeps
//     them as they are.
//
// Only the exceptions carry a `metrics` struct tag:
//
//   - `metrics:"gauge"` marks a numeric snapshot (a level, not a running
//     count): Add sums it across shards, Sub keeps it;
//   - `metrics:"keep"` marks a field that is not arithmetic (a size, a
//     configuration echo, a distribution rebuilt elsewhere): like a
//     label, dst keeps its value, or takes src's if its own is zero.
//
// Any other field type panics, so a new field cannot fall outside the
// schema unnoticed.

// Add merges src into dst: dst must point to a struct, and src must be
// that struct or a pointer to it.
func Add(dst, src any) { walk(dst, src, 1) }

// Sub turns dst into the counter-wise difference dst - prev; gauges,
// labels, kept fields and distributions keep dst's values. dst must
// point to a struct, and prev must be that struct or a pointer to it.
func Sub(dst, prev any) { walk(dst, prev, -1) }

func walk(dst, src any, sign int64) {
	d, s := reflect.ValueOf(dst), reflect.Indirect(reflect.ValueOf(src))
	if d.Kind() != reflect.Pointer || d.Elem().Type() != s.Type() || s.Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: cannot combine %T into %T", src, dst))
	}
	walkStruct(d.Elem(), s, sign)
}

// walkStruct combines s into d field by field: sign 1 merges, -1 diffs.
func walkStruct(d, s reflect.Value, sign int64) {
	for i := 0; i < d.NumField(); i++ {
		f, df, sf := d.Type().Field(i), d.Field(i), s.Field(i)
		switch kind := f.Tag.Get("metrics"); {
		case kind == "keep" || kind == "" && df.Kind() == reflect.String:
			if sign > 0 && df.IsZero() {
				df.Set(sf)
			}
		case kind == "gauge" && sign < 0: // a level is not diffed
		case kind != "" && kind != "gauge":
			panic(fmt.Sprintf("metrics: %s.%s has unknown kind %q", d.Type(), f.Name, kind))
		case !combine(df, sf, sign):
			panic(fmt.Sprintf("metrics: %s.%s (%s) has no counter kind", d.Type(), f.Name, f.Type))
		}
	}
}

// combine adds sign*s into a counter d, walks a nested struct, or (for
// sign 1) merges a distribution. It reports false for any other type.
func combine(d, s reflect.Value, sign int64) bool {
	switch t := d.Type(); {
	case d.CanInt():
		d.SetInt(d.Int() + sign*s.Int())
	case d.CanFloat():
		d.SetFloat(d.Float() + float64(sign)*s.Float())
	case t.Kind() == reflect.Struct:
		walkStruct(d, s, sign)
	case t == histType || t == intHistType || (t.Kind() == reflect.Slice || t.Kind() == reflect.Map) && isCounter(t.Elem()):
		if sign > 0 && !s.IsNil() {
			merge(d, s)
		}
	default:
		return false
	}
	return true
}

func isCounter(t reflect.Type) bool {
	z := reflect.Zero(t)
	return z.CanInt() || z.CanFloat()
}

var (
	histType    = reflect.TypeOf((*Histogram)(nil))
	intHistType = reflect.TypeOf((*IntHistogram)(nil))
)

// merge folds the non-nil distribution s into d, allocating d afresh
// when it is nil.
func merge(d, s reflect.Value) {
	switch src := s.Interface().(type) {
	case *Histogram:
		if d.IsNil() {
			d.Set(reflect.ValueOf(NewHistogram()))
		}
		d.Interface().(*Histogram).Merge(src)
	case *IntHistogram:
		if d.IsNil() {
			d.Set(reflect.ValueOf(NewIntHistogram(len(src.counts) - 1)))
		}
		d.Interface().(*IntHistogram).Merge(src)
	default:
		if d.Kind() == reflect.Map {
			if d.IsNil() {
				d.Set(reflect.MakeMap(d.Type()))
			}
			for it := s.MapRange(); it.Next(); {
				sum := reflect.New(d.Type().Elem()).Elem()
				if v := d.MapIndex(it.Key()); v.IsValid() {
					sum.Set(v)
				}
				combine(sum, it.Value(), 1)
				d.SetMapIndex(it.Key(), sum)
			}
			return
		}
		if d.Len() < s.Len() {
			grown := reflect.MakeSlice(d.Type(), s.Len(), s.Len())
			reflect.Copy(grown, d)
			d.Set(grown)
		}
		for i := 0; i < s.Len(); i++ {
			combine(d.Index(i), s.Index(i), 1)
		}
	}
}
