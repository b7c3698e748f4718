package yamlx

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// DecodeJSON parses one JSON value into the same shapes the YAML decoder
// produces: objects become *Map (preserving key order — CWL binding
// tie-breaks depend on it; a repeated key keeps its first position and its
// last value), arrays []any (an empty array is a nil []any), integers int64,
// other numbers float64, plus string/bool/nil. It is the JSON twin of
// Decode, used for service request bodies, worker results and the
// persistence layer's snapshots.
//
// json.Valid checks the syntax first, so the builder below walks the input
// once without re-checking it; strings with escapes or invalid UTF-8 decode
// under encoding/json's rules.
func DecodeJSON(data []byte) (any, error) {
	if !json.Valid(data) {
		// Unmarshal runs the same check and names the first syntax error.
		return nil, json.Unmarshal(data, new(json.RawMessage))
	}
	r := jsonReader{data: data}
	return r.value()
}

// jsonReader builds values from input json.Valid has accepted.
type jsonReader struct {
	data []byte
	pos  int
}

func (r *jsonReader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

func (r *jsonReader) value() (any, error) {
	r.skipSpace()
	switch r.data[r.pos] {
	case '{':
		r.pos++
		m := NewMap()
		r.skipSpace()
		if r.data[r.pos] == '}' {
			r.pos++
			return m, nil
		}
		for {
			r.skipSpace()
			key, err := r.str()
			if err != nil {
				return nil, err
			}
			r.skipSpace()
			r.pos++ // ':'
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			m.Set(key, v)
			r.skipSpace()
			r.pos++ // ',' or '}'
			if r.data[r.pos-1] == '}' {
				return m, nil
			}
		}
	case '[':
		r.pos++
		var list []any
		r.skipSpace()
		if r.data[r.pos] == ']' {
			r.pos++
			return list, nil
		}
		for {
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			list = append(list, v)
			r.skipSpace()
			r.pos++ // ',' or ']'
			if r.data[r.pos-1] == ']' {
				return list, nil
			}
		}
	case '"':
		return r.str()
	case 't':
		r.pos += len("true")
		return true, nil
	case 'f':
		r.pos += len("false")
		return false, nil
	case 'n':
		r.pos += len("null")
		return nil, nil
	}
	return r.number()
}

// str reads the string token at r.pos.
func (r *jsonReader) str() (string, error) {
	start := r.pos
	r.pos++
	escaped := false
	for r.data[r.pos] != '"' {
		if r.data[r.pos] == '\\' {
			escaped = true
			r.pos++
		}
		r.pos++
	}
	r.pos++
	if body := r.data[start+1 : r.pos-1]; !escaped && utf8.Valid(body) {
		return string(body), nil
	}
	var s string
	err := json.Unmarshal(r.data[start:r.pos], &s)
	return s, err
}

// number reads the number token at r.pos: int64 when it is an integer that
// fits, else float64 — an out-of-range float is an error, as strconv says.
func (r *jsonReader) number() (any, error) {
	start := r.pos
	for r.pos < len(r.data) && isNumberByte(r.data[r.pos]) {
		r.pos++
	}
	s := string(r.data[start:r.pos])
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	return strconv.ParseFloat(s, 64)
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
