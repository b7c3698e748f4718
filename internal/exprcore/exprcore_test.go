package exprcore

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

var testLang = Lang{Name: "javascript", Pos: "offset"}

// repeat runs op n times and returns the first error.
func repeat(n int, op func() error) error {
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// TestBounds takes each bound to exactly its limit, which passes, and one
// step past it, which fails with the bound's typed error.
func TestBounds(t *testing.T) {
	steps := func(n int) func() error {
		return func() error {
			m := NewMeter(&testLang, MaxSteps)
			return repeat(n, func() error { return m.Tick(7) })
		}
	}
	calls := func(n int) func() error {
		return func() error {
			var m Meter
			return repeat(n, m.Call)
		}
	}
	nesting := func(n int) func() error {
		return func() error {
			var d Depth
			return repeat(n, d.Enter)
		}
	}
	sealed := func(evaluated bool) func() error {
		return func() error {
			g := NewGlobals(NewScope(nil), func(any) bool { return false })
			if evaluated {
				g.Begin()
				g.End()
			}
			return g.Loadable()
		}
	}
	stepErr := &StepError{Lang: &testLang, Limit: MaxSteps, Pos: 7}
	for _, c := range []struct {
		name string
		run  func() error
		want error // nil, a sentinel, or a *StepError
		text string
	}{
		{"steps at budget", steps(MaxSteps), nil, ""},
		{"steps past budget", steps(MaxSteps + 1), stepErr,
			"javascript evaluation exceeded 5000000 steps (offset 7): possible infinite loop"},
		{"calls at bound", calls(MaxCallDepth), nil, ""},
		{"calls past bound", calls(MaxCallDepth + 1), ErrCallDepth, "call depth exceeded"},
		{"nesting at bound", nesting(MaxNesting), nil, ""},
		{"nesting past bound", nesting(MaxNesting + 1), ErrNesting, "expression nested more than 200 levels deep"},
		{"load before evaluation", sealed(false), nil, ""},
		{"load after evaluation", sealed(true), ErrSealed, "LoadLib called after evaluation started (global scope is sealed)"},
	} {
		err := c.run()
		var se *StepError
		switch {
		case c.want == nil:
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		case errors.As(c.want, &se):
			if got, ok := err.(*StepError); !ok || *got != *se {
				t.Errorf("%s: err = %#v, want %#v", c.name, err, se)
				continue
			}
		case !errors.Is(err, c.want):
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
			continue
		}
		if err.Error() != c.text {
			t.Errorf("%s: text = %q, want %q", c.name, err.Error(), c.text)
		}
	}
}

// TestMeterReturnAndLeave: a returned call frees its slot, and a lexer's
// unmatched closing bracket never takes the depth below zero.
func TestMeterReturnAndLeave(t *testing.T) {
	var m Meter
	if err := repeat(MaxCallDepth, m.Call); err != nil {
		t.Fatal(err)
	}
	m.Return()
	if err := m.Call(); err != nil {
		t.Errorf("call after a return: %v", err)
	}
	var d Depth
	d.Leave(1)
	if err := repeat(MaxNesting, d.Enter); err != nil {
		t.Errorf("nesting after an unmatched close: %v", err)
	}
	d.Leave(MaxNesting + 5)
	if d != 0 {
		t.Errorf("depth = %d after leaving past zero", d)
	}
}

// TestGlobalsSerialize runs evaluations from many goroutines, under -race.
// Over a library without mutable state they run in parallel, reading the
// frozen globals; over one with mutable state they take turns, so each
// mutates the shared value unsynchronized and none is lost.
func TestGlobalsSerialize(t *testing.T) {
	type counter struct{ n int }
	for _, mutable := range []bool{false, true} {
		global := NewScope(nil)
		global.Define("len", "builtin")
		g := NewGlobals(global, func(v any) bool { _, ok := v.(*counter); return ok })
		c := &counter{}
		if mutable {
			global.Define("hits", c)
		} else {
			global.Define("K", 3)
		}
		if err := g.Loadable(); err != nil {
			t.Fatal(err)
		}
		const workers, runs = 8, 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					g.Begin()
					s := g.CallScope(map[string]any{"i": i}, func(v any) any { return v })
					if v, ok := s.Lookup("i"); !ok || v != i {
						t.Errorf("i = %v, %v", v, ok)
					}
					if mutable {
						c.n++
					} else if v, _ := s.Lookup("K"); v != 3 {
						t.Errorf("K = %v", v)
					}
					g.End()
				}
			}()
		}
		wg.Wait()
		if g.Serialized() != mutable {
			t.Errorf("mutable library %v: Serialized() = %v", mutable, g.Serialized())
		}
		if !global.Frozen || !errors.Is(g.Loadable(), ErrSealed) {
			t.Errorf("globals not sealed after evaluation")
		}
		if mutable && c.n != workers*runs {
			t.Errorf("serialized counter = %d, want %d", c.n, workers*runs)
		}
	}
}

// TestEscape covers the escapes both languages share and the ones the
// core leaves to each language.
func TestEscape(t *testing.T) {
	for _, c := range []struct {
		in   string
		text string
		n    int
		ok   bool
	}{
		{`n`, "\n", 1, true},
		{`tab`, "\t", 1, true},
		{`0`, "\x00", 1, true},
		{`\`, `\`, 1, true},
		{`'`, `'`, 1, true},
		{`"x`, `"`, 1, true},
		{`x41!`, "A", 3, true},
		{`xe9`, "é", 3, true},
		{`u00e9`, "é", 5, true},
		{`u20AC`, "€", 5, true},
		{`x4`, "", 0, false},
		{`u12G4`, "", 0, false},
		{`a`, "", 0, false},
		{`U0001F600`, "", 0, false},
	} {
		text, n, ok := Escape(c.in)
		if text != c.text || n != c.n || ok != c.ok {
			t.Errorf("Escape(%q) = %q, %d, %v; want %q, %d, %v", c.in, text, n, ok, c.text, c.n, c.ok)
		}
	}
	if r, ok := HexRune("0001F600", 8); !ok || r != '😀' {
		t.Errorf("HexRune 8 digits = %q, %v", r, ok)
	}
	if _, ok := HexRune("FFFFFFFF", 8); ok {
		t.Error("HexRune accepted a code point past unicode.MaxRune")
	}
}

// fuzzSeeds returns the saved crashers of the interpreters' compile
// fuzzers, decoded from Go's corpus file format.
func fuzzSeeds(t *testing.T) []string {
	var seeds []string
	for _, dir := range []string{"../jsexpr/testdata/fuzz/FuzzCompileJS", "../pyexpr/testdata/fuzz/FuzzCompilePy"} {
		files, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(b), "\n") {
				if arg, ok := strings.CutPrefix(line, "string("); ok {
					s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
					if err != nil {
						t.Fatalf("%s: %v", f, err)
					}
					seeds = append(seeds, s)
				}
			}
		}
	}
	if len(seeds) == 0 {
		t.Fatal("no saved fuzz seeds found")
	}
	return seeds
}

// TestScanAdvances puts the saved fuzz crashers and the inputs of the two
// former lexer hangs (a rune that starts no name, or invalid UTF-8, where a
// name starts) through the shared scanning the way both lexers dispatch:
// every scan either advances or reports the character, so no input loops.
func TestScanAdvances(t *testing.T) {
	inputs := append(fuzzSeeds(t), "€", "x€", "\xc3f", "\xff", "1_0\xff", "a$b€c", "٣x")
	for _, src := range inputs {
		for _, js := range []bool{true, false} {
			pos, scans := 0, 0
			for pos < len(src) {
				if scans++; scans > len(src) {
					t.Fatalf("%q (js %v): scanning loops at %d", src, js, pos)
				}
				c := src[pos]
				switch {
				case IsDigit(c):
					pos = Digits(src, pos, !js)
				case IsNameStart(rune(c), js) || c >= utf8.RuneSelf:
					end, err := Name(src, pos, js)
					if err != nil {
						pos = len(src) // the lexer stops with a syntax error
						continue
					}
					if end <= pos {
						t.Fatalf("%q (js %v): Name(%d) = %d", src, js, pos, end)
					}
					pos = end
				default:
					pos++
				}
			}
		}
	}
	if end, err := Name("€", 0, true); end != 0 || err == nil || err.Error() != `unexpected character '€'` {
		t.Errorf(`Name("€") = %d, %v`, end, err)
	}
	if end, _ := Name("a$b€", 0, true); end != 3 {
		t.Errorf(`Name("a$b€") ends at %d, want 3`, end)
	}
	if end, _ := Name("a$b", 0, false); end != 1 {
		t.Errorf(`Name("a$b") without $ ends at %d, want 1`, end)
	}
}
