package exprcore

import (
	"sort"

	"repro/internal/yamlx"
)

// FromDoc converts a CWL document value into an interpreter's values. A
// list ([]any or []string) becomes list of its converted elements; a map
// (*yamlx.Map, or a map[string]any taken in key order) is copied with its
// values converted; any other value becomes scalar(v).
func FromDoc(v any, scalar func(any) any, list func([]any) any) any {
	switch x := v.(type) {
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = FromDoc(e, scalar, list)
		}
		return list(out)
	case []string:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return list(out)
	case *yamlx.Map:
		m := yamlx.NewMap()
		x.Range(func(k string, e any) bool {
			m.Set(k, FromDoc(e, scalar, list))
			return true
		})
		return m
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		m := yamlx.NewMap()
		for _, k := range keys {
			m.Set(k, FromDoc(x[k], scalar, list))
		}
		return m
	}
	return scalar(v)
}

// ToDoc converts an interpreter value back into the CWL document
// vocabulary. A value that elems reports as a list becomes a []any of its
// converted elements; a map is copied with its values converted; any other
// value becomes scalar(v).
func ToDoc(v any, scalar func(any) any, elems func(any) ([]any, bool)) any {
	if x, ok := v.(*yamlx.Map); ok {
		m := yamlx.NewMap()
		x.Range(func(k string, e any) bool {
			m.Set(k, ToDoc(e, scalar, elems))
			return true
		})
		return m
	}
	if es, ok := elems(v); ok {
		out := make([]any, len(es))
		for i, e := range es {
			out[i] = ToDoc(e, scalar, elems)
		}
		return out
	}
	return scalar(v)
}
