package metrics

import (
	"fmt"
	"reflect"
)

// MergeSnapshots folds two snapshot values of the same type into the
// fleet-merged view — the one merge routine behind serve.Stats.Merge and
// every engine block, histogram and tenant map inside it. A field added to
// any snapshot struct participates automatically; before this, each layer
// hand-maintained a field-by-field merge that silently dropped any counter
// the author forgot.
//
// The rules, chosen to reproduce the hand-written merges exactly:
//
//   - numeric fields (ints, uints, floats) sum
//   - bools OR
//   - strings zero out: a merged view spans shards, so per-replica labels
//     (serve.Stats.Shard) do not survive the merge
//   - []string unions as a sorted set (serve.Stats.Primitives)
//   - other slices merge element-wise at the longer length, missing
//     elements reading as zero (histogram buckets)
//   - maps union by key, recursively merging values present on both sides
//     (per-tenant stats)
//   - pointers: nil merges as the identity; two non-nil pointers merge
//     their pointees into a fresh allocation
//   - structs recurse field by field (unexported fields stay zero —
//     snapshots are wire types and have none)
//
// It panics on types with no defined merge (funcs, channels): a snapshot
// carrying one is a bug to surface at the first merge, not to mask.
func MergeSnapshots[T any](a, b T) T {
	out := mergeValue(reflect.ValueOf(a), reflect.ValueOf(b))
	return out.Interface().(T)
}

func mergeValue(a, b reflect.Value) reflect.Value {
	t := a.Type()
	switch a.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out := reflect.New(t).Elem()
		out.SetInt(a.Int() + b.Int())
		return out
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		out := reflect.New(t).Elem()
		out.SetUint(a.Uint() + b.Uint())
		return out
	case reflect.Float32, reflect.Float64:
		out := reflect.New(t).Elem()
		out.SetFloat(a.Float() + b.Float())
		return out
	case reflect.Bool:
		out := reflect.New(t).Elem()
		out.SetBool(a.Bool() || b.Bool())
		return out
	case reflect.String:
		// Labels are per-replica; a merged view spans replicas.
		return reflect.New(t).Elem()
	case reflect.Slice:
		if t.Elem().Kind() == reflect.String {
			union := sortedUnion(toStrings(a), toStrings(b))
			out := reflect.MakeSlice(t, len(union), len(union))
			for i, s := range union {
				out.Index(i).SetString(s)
			}
			if len(union) == 0 {
				return reflect.Zero(t)
			}
			return out
		}
		n := a.Len()
		if b.Len() > n {
			n = b.Len()
		}
		if n == 0 {
			return reflect.Zero(t)
		}
		out := reflect.MakeSlice(t, n, n)
		zero := reflect.Zero(t.Elem())
		for i := 0; i < n; i++ {
			av, bv := zero, zero
			if i < a.Len() {
				av = a.Index(i)
			}
			if i < b.Len() {
				bv = b.Index(i)
			}
			out.Index(i).Set(mergeValue(av, bv))
		}
		return out
	case reflect.Map:
		if a.IsNil() && b.IsNil() {
			return reflect.Zero(t)
		}
		out := reflect.MakeMap(t)
		for _, k := range a.MapKeys() {
			out.SetMapIndex(k, a.MapIndex(k))
		}
		for _, k := range b.MapKeys() {
			if prev := out.MapIndex(k); prev.IsValid() {
				out.SetMapIndex(k, mergeValue(prev, b.MapIndex(k)))
			} else {
				out.SetMapIndex(k, b.MapIndex(k))
			}
		}
		return out
	case reflect.Pointer:
		switch {
		case a.IsNil() && b.IsNil():
			return reflect.Zero(t)
		case a.IsNil():
			return b
		case b.IsNil():
			return a
		}
		out := reflect.New(t.Elem())
		out.Elem().Set(mergeValue(a.Elem(), b.Elem()))
		return out
	case reflect.Struct:
		out := reflect.New(t).Elem()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported: not wire state, stays zero
			}
			out.Field(i).Set(mergeValue(a.Field(i), b.Field(i)))
		}
		return out
	case reflect.Interface:
		if a.IsNil() && b.IsNil() {
			return reflect.Zero(t)
		}
	}
	panic(fmt.Sprintf("metrics: no merge defined for snapshot field type %s", t))
}

func toStrings(v reflect.Value) []string {
	out := make([]string, v.Len())
	for i := range out {
		out[i] = v.Index(i).String()
	}
	return out
}
