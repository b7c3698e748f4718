package parsl

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"unicode/utf8"

	"repro/internal/yamlx"
)

// ResultCodec serializes task results: it is the form a finished memo entry
// is held in, and the form the memo checkpoint hooks, snapshots and the
// service's journal carry. Supported shapes — which cover every result the
// CWL paths produce — are:
//
//   - *yamlx.Map   (tool/step output objects)     → "obj"
//   - File                                        → "file"
//   - BashResult                                  → "bash"
//   - nil, string, bool, int64/int, float64       → "val"
//   - []any of the above (recursively)            → "list"
//
// Anything else (app-specific structs, channels, closures) is not
// checkpointable: Encode reports false and the entry simply stays
// process-local.
type ResultCodec struct{}

// taggedValue is the wire form: a type tag plus the encoded payload.
type taggedValue struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v,omitempty"`
}

// Encode serializes a task result, reporting false when the value is not a
// supported shape.
func (c ResultCodec) Encode(v any) (json.RawMessage, bool) {
	switch t := v.(type) {
	case nil:
		return mustTag("val", json.RawMessage("null")), true
	case *yamlx.Map:
		raw, err := t.MarshalJSON()
		if err != nil {
			return nil, false
		}
		return mustTag("obj", raw), true
	case File:
		raw, err := json.Marshal(t.Path)
		if err != nil {
			return nil, false
		}
		return mustTag("file", raw), true
	case BashResult:
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, false
		}
		return mustTag("bash", raw), true
	case string, bool, int, int64, float64:
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, false
		}
		return mustTag("val", raw), true
	case []any:
		elems := make([]json.RawMessage, len(t))
		for i, e := range t {
			enc, ok := c.Encode(e)
			if !ok {
				return nil, false
			}
			elems[i] = enc
		}
		raw, err := json.Marshal(elems)
		if err != nil {
			return nil, false
		}
		return mustTag("list", raw), true
	default:
		return nil, false
	}
}

func mustTag(tag string, raw json.RawMessage) json.RawMessage {
	out, _ := json.Marshal(taggedValue{T: tag, V: raw})
	return out
}

// Decode reverses Encode.
func (c ResultCodec) Decode(raw json.RawMessage) (any, error) {
	var tv taggedValue
	if err := json.Unmarshal(raw, &tv); err != nil {
		return nil, fmt.Errorf("result codec: %w", err)
	}
	switch tv.T {
	case "val":
		if len(tv.V) == 0 {
			return nil, nil
		}
		// DecodeJSON types integers as int64, matching live results.
		return yamlx.DecodeJSON(tv.V)
	case "obj":
		v, err := yamlx.DecodeJSON(tv.V)
		if err != nil {
			return nil, fmt.Errorf("result codec: obj: %w", err)
		}
		m, ok := v.(*yamlx.Map)
		if !ok {
			return nil, fmt.Errorf("result codec: obj payload is %T", v)
		}
		return m, nil
	case "file":
		var path string
		if err := json.Unmarshal(tv.V, &path); err != nil {
			return nil, fmt.Errorf("result codec: file: %w", err)
		}
		return NewFile(path), nil
	case "bash":
		var br BashResult
		if err := json.Unmarshal(tv.V, &br); err != nil {
			return nil, fmt.Errorf("result codec: bash: %w", err)
		}
		return br, nil
	case "list":
		var elems []json.RawMessage
		if err := json.Unmarshal(tv.V, &elems); err != nil {
			return nil, fmt.Errorf("result codec: list: %w", err)
		}
		out := make([]any, len(elems))
		for i, e := range elems {
			v, err := c.Decode(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("result codec: unknown tag %q", tv.T)
	}
}

// roundTrips reports whether Decode(Encode(v)) is reflect.DeepEqual to v, Go
// types included, for a v that Encode accepts. It walks v without encoding
// it. Shapes the codec widens or normalizes report false: a Go int (decoded
// as int64), an integral float64 (its JSON text reads back as an int64), a
// string that is not valid UTF-8, a nil list or map, and — inside an
// object (nested), where values travel as plain JSON — an empty list
// (decoded nil) or any type beyond the JSON ones.
func roundTrips(v any, nested bool) bool {
	switch t := v.(type) {
	case nil, bool, int64:
		return true
	case string:
		return utf8.ValidString(t)
	case float64:
		// An integral value below 1e19 is written without a fraction or
		// exponent and parses as an int64 (the bound is conservative near
		// 2^63).
		return t != math.Trunc(t) || math.Abs(t) >= 1e19
	case *yamlx.Map:
		if t == nil {
			return false
		}
		if t.Len() == 0 {
			// An empty map built some other way (NewMapCap, Delete) differs
			// from the decoded one in its internal slices.
			return reflect.DeepEqual(t, emptyMap)
		}
		ok := true
		t.Range(func(k string, e any) bool {
			ok = utf8.ValidString(k) && roundTrips(e, true)
			return ok
		})
		return ok
	case File:
		return !nested && utf8.ValidString(t.Path)
	case BashResult:
		return !nested && utf8.ValidString(t.Command) && utf8.ValidString(t.Stdout) && utf8.ValidString(t.Stderr)
	case []any:
		// A top-level list decodes to a non-nil slice, even when empty; a
		// nested "[]" decodes to a nil one.
		if t == nil || nested && len(t) == 0 {
			return false
		}
		for _, e := range t {
			if !roundTrips(e, nested) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// emptyMap is the value DecodeJSON yields for "{}".
var emptyMap = yamlx.NewMap()
