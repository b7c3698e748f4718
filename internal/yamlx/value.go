// Package yamlx implements the subset of YAML needed to load CWL documents,
// tool inputs, and TaPS-style Parsl configurations.
//
// The decoder understands block and flow collections, plain/quoted scalars
// with YAML 1.2 core-schema typing, literal (|) and folded (>) block scalars
// with chomping indicators, comments, anchors/aliases, and multi-document
// streams. Mappings decode into *Map, an insertion-order-preserving map,
// because CWL semantics (e.g. command-line binding tie-breaks) depend on
// document order.
package yamlx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// Map is a YAML mapping that preserves key insertion order.
// The zero value is ready to use.
type Map struct {
	keys []string
	vals map[string]any
}

// NewMap returns an empty ordered mapping.
func NewMap() *Map { return &Map{vals: map[string]any{}} }

// NewMapCap returns an empty ordered mapping preallocated for n entries —
// use when the final size is known to avoid growth reallocations.
func NewMapCap(n int) *Map {
	if n < 0 {
		n = 0
	}
	return &Map{keys: make([]string, 0, n), vals: make(map[string]any, n)}
}

// MapOf builds a Map from alternating key/value pairs. It panics if given an
// odd number of arguments or a non-string key; it is intended for tests and
// literals.
func MapOf(pairs ...any) *Map {
	if len(pairs)%2 != 0 {
		panic("yamlx.MapOf: odd number of arguments")
	}
	m := NewMap()
	for i := 0; i < len(pairs); i += 2 {
		k, ok := pairs[i].(string)
		if !ok {
			panic("yamlx.MapOf: non-string key")
		}
		m.Set(k, pairs[i+1])
	}
	return m
}

// Len reports the number of entries.
func (m *Map) Len() int {
	if m == nil {
		return 0
	}
	return len(m.keys)
}

// Keys returns the keys in insertion order. The returned slice is shared;
// callers must not modify it.
func (m *Map) Keys() []string {
	if m == nil {
		return nil
	}
	return m.keys
}

// Get returns the value for key and whether it was present.
func (m *Map) Get(key string) (any, bool) {
	if m == nil || m.vals == nil {
		return nil, false
	}
	v, ok := m.vals[key]
	return v, ok
}

// Value returns the value for key, or nil when absent.
func (m *Map) Value(key string) any {
	v, _ := m.Get(key)
	return v
}

// Has reports whether key is present.
func (m *Map) Has(key string) bool {
	_, ok := m.Get(key)
	return ok
}

// Set stores key=value, appending the key if new.
func (m *Map) Set(key string, value any) {
	if m.vals == nil {
		m.vals = map[string]any{}
	}
	if _, ok := m.vals[key]; !ok {
		m.keys = append(m.keys, key)
	}
	m.vals[key] = value
}

// Delete removes key if present.
func (m *Map) Delete(key string) {
	if m == nil || m.vals == nil {
		return
	}
	if _, ok := m.vals[key]; !ok {
		return
	}
	delete(m.vals, key)
	for i, k := range m.keys {
		if k == key {
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			break
		}
	}
}

// Range calls fn for each entry in insertion order, stopping early if fn
// returns false.
func (m *Map) Range(fn func(key string, value any) bool) {
	if m == nil {
		return
	}
	for _, k := range m.keys {
		if !fn(k, m.vals[k]) {
			return
		}
	}
}

// Clone returns a shallow copy. Key order and capacity are preserved without
// the per-key lookups Set would pay, keeping the step-input hot path (one
// clone per scatter job) at three allocations regardless of size.
func (m *Map) Clone() *Map {
	if m == nil || len(m.keys) == 0 {
		return NewMap()
	}
	c := &Map{
		keys: make([]string, len(m.keys)),
		vals: make(map[string]any, len(m.keys)),
	}
	copy(c.keys, m.keys)
	for k, v := range m.vals {
		c.vals[k] = v
	}
	return c
}

// String returns a compact JSON-ish rendering, mostly for debugging.
func (m *Map) String() string {
	b, _ := m.MarshalJSON()
	return string(b)
}

// MarshalJSON renders the mapping as a JSON object in insertion order, with
// the bytes json.Marshal gives each key and value. It writes nested maps and
// arrays in one pass — marshaling each value on its own would re-compact a
// nested map once per level — and returns an exactly sized slice, since
// callers such as the submission service retain it.
func (m *Map) MarshalJSON() ([]byte, error) {
	w := jsonWriters.Get().(*jsonWriter)
	defer w.release()
	if err := w.object(m); err != nil {
		return nil, err
	}
	out := make([]byte, w.buf.Len())
	copy(out, w.buf.Bytes())
	return out, nil
}

// jsonWriter builds one JSON document in buf; enc writes its leaf values into
// buf exactly as json.Marshal renders them.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	w := &jsonWriter{}
	w.enc = json.NewEncoder(&w.buf)
	return w
}}

// release returns w to the pool, unless one outsized document grew its
// buffer past what a pool should pin.
func (w *jsonWriter) release() {
	if w.buf.Cap() > 64<<10 {
		return
	}
	w.buf.Reset()
	jsonWriters.Put(w)
}

func (w *jsonWriter) object(m *Map) error {
	w.buf.WriteByte('{')
	for i, k := range m.Keys() {
		if i > 0 {
			w.buf.WriteByte(',')
		}
		if err := w.leaf(k); err != nil {
			return err
		}
		w.buf.WriteByte(':')
		if err := w.value(m.vals[k]); err != nil {
			return err
		}
	}
	w.buf.WriteByte('}')
	return nil
}

func (w *jsonWriter) value(v any) error {
	switch x := v.(type) {
	case *Map:
		if x == nil {
			w.buf.WriteString("null")
			return nil
		}
		return w.object(x)
	case []any:
		if x == nil {
			w.buf.WriteString("null")
			return nil
		}
		w.buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			if err := w.value(e); err != nil {
				return err
			}
		}
		w.buf.WriteByte(']')
		return nil
	}
	return w.leaf(v)
}

// leaf writes v as json.Marshal renders it: Encoder.Encode writes the same
// bytes followed by a newline, which leaf drops.
func (w *jsonWriter) leaf(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	w.buf.Truncate(w.buf.Len() - 1)
	return nil
}

// GetString returns the string value for key ("" when absent or non-string).
func (m *Map) GetString(key string) string {
	if s, ok := m.Value(key).(string); ok {
		return s
	}
	return ""
}

// GetMap returns the nested *Map for key, or nil.
func (m *Map) GetMap(key string) *Map {
	if sub, ok := m.Value(key).(*Map); ok {
		return sub
	}
	return nil
}

// GetSlice returns the []any for key, or nil.
func (m *Map) GetSlice(key string) []any {
	if s, ok := m.Value(key).([]any); ok {
		return s
	}
	return nil
}

// GetBool returns the bool value for key with a default.
func (m *Map) GetBool(key string, def bool) bool {
	if b, ok := m.Value(key).(bool); ok {
		return b
	}
	return def
}

// GetInt returns an integer value for key with a default, accepting int64 or
// float64 representations.
func (m *Map) GetInt(key string, def int) int {
	switch v := m.Value(key).(type) {
	case int64:
		return int(v)
	case int:
		return v
	case float64:
		return int(v)
	}
	return def
}

var (
	intRe   = regexp.MustCompile(`^[-+]?[0-9]+$`)
	hexRe   = regexp.MustCompile(`^0x[0-9a-fA-F]+$`)
	octRe   = regexp.MustCompile(`^0o[0-7]+$`)
	floatRe = regexp.MustCompile(`^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$`)
)

// typedScalar converts a plain (unquoted) scalar to its YAML 1.2 core-schema
// value: null, bool, int64, float64, or string.
func typedScalar(s string) any {
	switch s {
	case "", "~", "null", "Null", "NULL":
		return nil
	case "true", "True", "TRUE":
		return true
	case "false", "False", "FALSE":
		return false
	case ".inf", ".Inf", ".INF", "+.inf", "+.Inf", "+.INF":
		return math.Inf(1)
	case "-.inf", "-.Inf", "-.INF":
		return math.Inf(-1)
	case ".nan", ".NaN", ".NAN":
		return math.NaN()
	}
	if intRe.MatchString(s) {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
		// Out-of-range integers fall through to float.
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	if hexRe.MatchString(s) {
		if n, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return n
		}
	}
	if octRe.MatchString(s) {
		if n, err := strconv.ParseInt(s[2:], 8, 64); err == nil {
			return n
		}
	}
	if floatRe.MatchString(s) && strings.ContainsAny(s, ".eE") {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return s
}

// Error describes a YAML syntax error with a 1-based line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("yaml: line %d: %s", e.Line, e.Msg)
	}
	return "yaml: " + e.Msg
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
