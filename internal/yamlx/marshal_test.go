package yamlx

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// marshalPerValue is the MarshalJSON the single-pass writer replaced: every
// key and value through json.Marshal, nested maps re-compacted at each level.
// It is the oracle for byte-identical output.
func marshalPerValue(m *Map) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range m.Keys() {
		if i > 0 {
			buf.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		vb, err := json.Marshal(m.vals[k])
		if err != nil {
			return nil, err
		}
		buf.Write(vb)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

func fileObject(path string, size int64) *Map {
	return MapOf("class", "File", "path", path, "location", "file://"+path,
		"basename", path[strings.LastIndexByte(path, '/')+1:], "size", size)
}

// TestMarshalJSONMatchesPerValueMarshal checks that a table of maps renders
// to the same bytes as before, in an exactly sized slice.
func TestMarshalJSONMatchesPerValueMarshal(t *testing.T) {
	files := make([]any, 32)
	for i := range files {
		files[i] = fileObject("/work/run-000001/step/out-"+strings.Repeat("x", i)+".txt", int64(i))
	}
	var nilMap *Map
	cases := map[string]*Map{
		"nil":     nil,
		"empty":   NewMap(),
		"scalars": MapOf("s", "hi", "i", int64(-42), "big", int64(math.MaxInt64), "f", 3.25, "tiny", 1e-9, "huge", 1e300, "t", true, "null", nil),
		"escapes": MapOf("html", "<a href=\"x\">&amp;</a>", "ctl", "tab\tnl\nbs\\bell\x07", "key <&>", "v"),
		"unicode": MapOf("grüße", "日本語 — ☃", "sep", "\u2028\u2029", "bad", "\xff\xfe"),
		"nested":  MapOf("a", MapOf("b", MapOf("c", []any{int64(1), MapOf("d", "e"), []any{}, nil}))),
		"files":   MapOf("outs", files, "one", fileObject("/work/a.png", 1024)),
		"nils":    MapOf("m", nilMap, "l", []any(nil), "strs", []string{"x", "<y>"}, "gomap", map[string]any{"k": MapOf("z", int64(1))}),
	}
	for name, m := range cases {
		got, err := m.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := marshalPerValue(m)
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: %d bytes in a slice of cap %d", name, len(got), cap(got))
		}
	}
}

// TestMarshalJSONRandomMatchesPerValueMarshal compares seeded random nested
// values, and checks both forms fail alike on a value JSON cannot hold.
func TestMarshalJSONRandomMatchesPerValueMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "<", ">", "&", "\"", "\\", "\n", "é", "☃", "\u2028", "\x00", "\xff", " "}
	str := func() string {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	var value func(depth int) any
	value = func(depth int) any {
		switch k := rng.Intn(9); {
		case k == 0 && depth < 4:
			m := NewMap()
			for n := rng.Intn(5); n > 0; n-- {
				m.Set(str(), value(depth+1))
			}
			return m
		case k == 1 && depth < 4:
			l := make([]any, rng.Intn(4))
			for i := range l {
				l[i] = value(depth + 1)
			}
			return l
		case k == 2:
			return rng.Int63() - rng.Int63()
		case k == 3:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case k == 4:
			return rng.Intn(2) == 0
		case k == 5:
			return nil
		}
		return str()
	}
	for i := 0; i < 2000; i++ {
		m := NewMap()
		for n := rng.Intn(6); n > 0; n-- {
			m.Set(str(), value(0))
		}
		got, err := m.MarshalJSON()
		want, werr := marshalPerValue(m)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("case %d: got %s (%v)\nwant %s (%v)", i, got, err, want, werr)
		}
	}
	bad := MapOf("ok", "x", "nan", []any{math.NaN()})
	if _, err := bad.MarshalJSON(); err == nil {
		t.Error("MarshalJSON accepted NaN")
	}
	if _, err := marshalPerValue(bad); err == nil {
		t.Error("the oracle accepted NaN")
	}
}
