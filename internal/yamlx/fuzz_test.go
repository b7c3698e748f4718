package yamlx

import (
	"reflect"
	"testing"
)

// FuzzDecode hammers the YAML document parser: no input may panic it, and
// anything it accepts must survive a marshal → decode round trip (the
// property the persistence and wire layers rely on). Crashers found by `go
// test -fuzz=FuzzDecode` become seeds here.
func FuzzDecode(f *testing.F) {
	seeds := []string{
		"",
		"a: 1\nb: two\n",
		"- 1\n- 2\n- x\n",
		"cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: [echo, -n]\n",
		"nested:\n  deep:\n    deeper: [1, {k: v}, 'q']\n",
		"key: |\n  block\n  text\n",
		"key: >\n  folded\n  text\n",
		"a: {inline: [1, 2], b: {c: d}}\n",
		"s: \"quo\\\"ted\"\nt: 'single'\n",
		"n: null\nb: true\nf: 1.5\ni: -3\n",
		"# comment only\n",
		"a:\n- 1\n-\n",
		"\t",
		"a: b: c",
		"---\na: 1\n",
		"x: [",
		"y: {",
		"'",
		"a: !!str 1",
		"&anchor x",
		"key:\n  - {a: [}\n",
		"0:\n 0:\n  0:\n   0:\n    0:\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		out, err := Marshal(v)
		if err != nil {
			// Values produced by Decode must always be encodable.
			t.Fatalf("decoded value %T does not marshal: %v", v, err)
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("marshal output does not re-decode: %v\ninput: %q\nmarshaled: %q", err, data, out)
		}
	})
}

// FuzzDecodeJSON covers the JSON entry point the worker protocol and
// persistence layers decode untrusted bytes with.
func FuzzDecodeJSON(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `null`, `{"a":1,"b":[true,null,"x"]}`, `{"nested":{"k":1.5}}`,
		`[[[[[]]]]]`, `{"a":`, `"lone`, `{"dup":1,"dup":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeJSON(data)
		if err != nil {
			return
		}
		if _, err := Marshal(v); err != nil {
			t.Fatalf("decoded JSON value %T does not marshal: %v", v, err)
		}
	})
}

// FuzzDecodeJSONMatchesStdlib checks the single-pass DecodeJSON against the
// json.Decoder token walk it replaced: both accept or both reject, with
// reflect.DeepEqual values. The one allowed difference is nesting deeper
// than encoding/json's scanner limit of 10000, which json.Valid rejects and
// the token walk, whose Token calls never see the depth, accepted.
func FuzzDecodeJSONMatchesStdlib(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `null`, `true`, `-0`, `1e400`, `12345678901234567890`, `1.5e-3`,
		`{"a":1,"b":[true,null,"x"]}`, `{"dup":1,"x":2,"dup":3}`, `[[],{},[[]]]`,
		`"esc\"aped\\\/é😀"`, "\"bad utf8 \xff\"", `"\ud800"`,
		` {"k" : [ 1 , 2 ] } `, `{"a":`, `[1,]`, `{"a" 1}`, `01`, `1 2`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeJSON(data)
		want, wantErr := decodeJSONTokens(data)
		if gotErr != nil && wantErr == nil && nestingDepth(want) > 10000 {
			return
		}
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("input %q: DecodeJSON error %v, token walk error %v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q: DecodeJSON = %#v, token walk = %#v", data, got, want)
		}
	})
}

func nestingDepth(v any) int {
	deepest := 0
	switch x := v.(type) {
	case *Map:
		x.Range(func(_ string, e any) bool {
			deepest = max(deepest, nestingDepth(e))
			return true
		})
	case []any:
		for _, e := range x {
			deepest = max(deepest, nestingDepth(e))
		}
	default:
		return 0
	}
	return deepest + 1
}
