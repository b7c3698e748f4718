package yamlx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestDecodeJSONShapes(t *testing.T) {
	v, err := DecodeJSON([]byte(`{"b": 1, "a": {"nested": [1, 2.5, "x", true, null]}}`))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := v.(*Map)
	if !ok {
		t.Fatalf("got %T, want *Map", v)
	}
	if got := m.Keys(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Errorf("key order = %v", got)
	}
	if n, ok := m.Value("b").(int64); !ok || n != 1 {
		t.Errorf("integer decoded as %T %v, want int64 1", m.Value("b"), m.Value("b"))
	}
	nested := m.GetMap("a").GetSlice("nested")
	want := []any{int64(1), 2.5, "x", true, nil}
	if !reflect.DeepEqual(nested, want) {
		t.Errorf("nested = %#v, want %#v", nested, want)
	}
}

func TestDecodeJSONScalars(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want any
	}{
		{`"hi"`, "hi"},
		{`42`, int64(42)},
		{`4.5`, 4.5},
		{`true`, true},
		{`null`, nil},
		{`[]`, []any(nil)},
	} {
		v, err := DecodeJSON([]byte(tc.in))
		if err != nil {
			t.Errorf("%s: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(v, tc.want) {
			t.Errorf("%s = %#v, want %#v", tc.in, v, tc.want)
		}
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	// Nesting past encoding/json's scanner limit of 10000 is refused too.
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, in := range []string{``, `{`, `{"a": 1} trailing`, `nope`, `1e400`, deep} {
		if _, err := DecodeJSON([]byte(in)); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

func TestDecodeJSONRoundTripsMarshal(t *testing.T) {
	m := MapOf("z", int64(1), "a", MapOf("k", "v"), "list", []any{int64(1), "two"})
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.(*Map).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("round trip changed JSON:\n  %s\n  %s", data, data2)
	}
}

// decodeJSONTokens is the json.Decoder.Token walk DecodeJSON replaced, kept
// as the oracle FuzzDecodeJSONMatchesStdlib checks the single-pass builder
// against.
func decodeJSONTokens(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	v, err := decodeJSONTokenValue(dec)
	if err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after JSON value")
	}
	return v, nil
}

func decodeJSONTokenValue(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			m := NewMap()
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, _ := keyTok.(string)
				val, err := decodeJSONTokenValue(dec)
				if err != nil {
					return nil, err
				}
				m.Set(key, val)
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, err
			}
			return m, nil
		case '[':
			var list []any
			for dec.More() {
				val, err := decodeJSONTokenValue(dec)
				if err != nil {
					return nil, err
				}
				list = append(list, val)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, err
			}
			return list, nil
		}
		return nil, fmt.Errorf("unexpected delimiter %v", t)
	case json.Number:
		if n, err := t.Int64(); err == nil {
			return n, nil
		}
		return t.Float64()
	default:
		return tok, nil // string, bool, nil
	}
}

// fileResult is one worker result of the scatter echo tool.
const fileResult = `{"output":{"class":"File","location":"file:///srv/work/run-000123/step-echo/3f9a1c2b/out.txt","path":"/srv/work/run-000123/step-echo/3f9a1c2b/out.txt","basename":"out.txt","nameroot":"out","nameext":".txt","checksum":"sha1$2aae6c35c94fcfb415dbe95f408b9ce91ee846ed","size":12}}`

func BenchmarkDecodeJSON(b *testing.B) {
	for name, decode := range map[string]func([]byte) (any, error){
		"single-pass": DecodeJSON,
		"token-walk":  decodeJSONTokens,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode([]byte(fileResult)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
