package parsl

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/yamlx"
)

func TestResultCodecRoundTrips(t *testing.T) {
	c := ResultCodec{}
	cases := []any{
		nil,
		"hello",
		true,
		int64(42),
		2.5,
		NewFile("/work/out.txt"),
		BashResult{Command: "echo hi", ExitCode: 0, Stdout: "/tmp/o"},
		[]any{int64(1), "two", nil, []any{false}},
		yamlx.MapOf("out", yamlx.MapOf("class", "File", "path", "/work/x"), "count", int64(3)),
	}
	for _, in := range cases {
		raw, ok := c.Encode(in)
		if !ok {
			t.Errorf("Encode(%#v) not supported", in)
			continue
		}
		out, err := c.Decode(raw)
		if err != nil {
			t.Errorf("Decode(%s): %v", raw, err)
			continue
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip %#v -> %#v", in, out)
		}
		if !roundTrips(in, false) {
			t.Errorf("roundTrips(%#v) = false for an exact shape", in)
		}
	}
}

func TestResultCodecIntWidens(t *testing.T) {
	c := ResultCodec{}
	raw, ok := c.Encode(7)
	if !ok {
		t.Fatal("int not encodable")
	}
	out, err := c.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out != int64(7) {
		t.Errorf("int decoded as %T %v, want int64 7", out, out)
	}
	if roundTrips(7, false) {
		t.Error("roundTrips(int) = true, but int widens to int64")
	}
}

func TestResultCodecRejectsUnsupported(t *testing.T) {
	c := ResultCodec{}
	type custom struct{ X int }
	for _, v := range []any{custom{1}, make(chan int), func() {}, map[string]any{"a": 1}, []any{custom{}}} {
		if _, ok := c.Encode(v); ok {
			t.Errorf("Encode(%T) unexpectedly supported", v)
		}
	}
}

func TestResultCodecDecodeErrors(t *testing.T) {
	c := ResultCodec{}
	for _, raw := range []string{``, `{"t":"wat","v":1}`, `{"t":"obj","v":[1]}`, `{"t":"file","v":{}}`} {
		if _, err := c.Decode([]byte(raw)); err == nil {
			t.Errorf("Decode(%q) succeeded", raw)
		}
	}
}

// TestRoundTripsMatchesCodec checks roundTrips against the codec itself: for
// every encodable value, roundTrips must be true exactly when decoding the
// encoding gives back a reflect.DeepEqual value.
func TestRoundTripsMatchesCodec(t *testing.T) {
	c := ResultCodec{}
	emptyKeys := yamlx.MapOf("gone", "x")
	emptyKeys.Delete("gone")
	cases := []any{
		nil, "ok", "bad\xff", true, int64(-3), 7,
		2.5, 2.0, -0.0, 1e-7, 1e20, math.MaxInt64 * 4.0,
		NewFile("/a/b"), NewFile("\xfe"),
		BashResult{Command: "x", ExitCode: 3},
		[]any{}, []any(nil), []any{int64(1), 2}, []any{yamlx.NewMap()},
		yamlx.NewMap(), yamlx.NewMapCap(0), emptyKeys, (*yamlx.Map)(nil),
		yamlx.MapOf("n", 1), yamlx.MapOf("n", int64(1), "f", 0.5, "s", "x", "b", false, "z", nil),
		yamlx.MapOf("f", 3.0), yamlx.MapOf("l", []any{}), yamlx.MapOf("l", []any(nil)),
		yamlx.MapOf("l", []any{"a", int64(2), yamlx.MapOf("k", "v")}),
		yamlx.MapOf("m", yamlx.NewMap()), yamlx.MapOf("m", yamlx.NewMapCap(0)),
		yamlx.MapOf("m", (*yamlx.Map)(nil)), yamlx.MapOf("bad\xff", "v"),
		yamlx.MapOf("file", NewFile("/x")), yamlx.MapOf("strs", []string{"a"}),
		yamlx.MapOf("html", "<a&b> "),
	}
	for _, in := range cases {
		raw, ok := c.Encode(in)
		if !ok {
			t.Errorf("Encode(%#v) not supported", in)
			continue
		}
		out, err := c.Decode(raw)
		if err != nil {
			t.Errorf("Decode(%s): %v", raw, err)
			continue
		}
		if exact := reflect.DeepEqual(out, in); roundTrips(in, false) != exact {
			t.Errorf("roundTrips(%#v) = %v, but the codec gives back %#v", in, !exact, out)
		}
	}
}
