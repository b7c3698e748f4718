package yamlx

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// mustDecode decodes s or fails the test.
func mustDecode(t *testing.T, s string) any {
	t.Helper()
	v, err := DecodeString(s)
	if err != nil {
		t.Fatalf("Decode(%q): %v", s, err)
	}
	return v
}

// jsonOf renders a decoded value canonically for comparison.
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return string(b)
}

func TestScalarTyping(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"hello", "hello"},
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"+3", int64(3)},
		{"3.14", 3.14},
		{"2.5e3", 2500.0},
		{"0x1F", int64(31)},
		{"0o17", int64(15)},
		{"true", true},
		{"True", true},
		{"false", false},
		{"null", nil},
		{"~", nil},
		{"", nil},
		{".inf", math.Inf(1)},
		{"-.inf", math.Inf(-1)},
		{"yes", "yes"}, // core schema: not a bool
		{"no", "no"},   // core schema: not a bool
		{"1.2.3", "1.2.3"},
		{"12abc", "12abc"},
		{"-", "-"},
	}
	for _, c := range cases {
		got := typedScalar(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("typedScalar(%q) = %#v (%T), want %#v", c.in, got, got, c.want)
		}
	}
}

func TestScalarNaN(t *testing.T) {
	got := typedScalar(".nan")
	f, ok := got.(float64)
	if !ok || !math.IsNaN(f) {
		t.Fatalf("typedScalar(.nan) = %#v, want NaN", got)
	}
}

func TestSimpleMapping(t *testing.T) {
	v := mustDecode(t, "a: 1\nb: two\nc: true\n")
	m, ok := v.(*Map)
	if !ok {
		t.Fatalf("got %T, want *Map", v)
	}
	if got := m.Value("a"); got != int64(1) {
		t.Errorf("a = %#v", got)
	}
	if got := m.Value("b"); got != "two" {
		t.Errorf("b = %#v", got)
	}
	if got := m.Value("c"); got != true {
		t.Errorf("c = %#v", got)
	}
	if !reflect.DeepEqual(m.Keys(), []string{"a", "b", "c"}) {
		t.Errorf("keys = %v", m.Keys())
	}
}

func TestNestedMapping(t *testing.T) {
	v := mustDecode(t, `
outer:
  inner:
    deep: value
  sibling: 2
top: 3
`)
	want := `{"outer":{"inner":{"deep":"value"},"sibling":2},"top":3}`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestSequences(t *testing.T) {
	v := mustDecode(t, `
- one
- 2
- true
- null
`)
	want := `["one",2,true,null]`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestSequenceOfMappings(t *testing.T) {
	v := mustDecode(t, `
steps:
  - name: resize
    cores: 1
  - name: blur
    cores: 2
`)
	want := `{"steps":[{"name":"resize","cores":1},{"name":"blur","cores":2}]}`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestSequenceAtKeyIndent(t *testing.T) {
	// YAML allows a block sequence at the same indent as its key.
	v := mustDecode(t, `
requirements:
- class: InlineJavascriptRequirement
- class: ScatterFeatureRequirement
`)
	want := `{"requirements":[{"class":"InlineJavascriptRequirement"},{"class":"ScatterFeatureRequirement"}]}`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestNestedSequences(t *testing.T) {
	v := mustDecode(t, `
- - a
  - b
- - c
`)
	want := `[["a","b"],["c"]]`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestSequenceWithNestedBlock(t *testing.T) {
	v := mustDecode(t, `
-
  name: x
  v: 1
- scalar
`)
	want := `[{"name":"x","v":1},"scalar"]`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestFlowCollections(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a: [1, 2, 3]", `{"a":[1,2,3]}`},
		{"a: []", `{"a":[]}`},
		{"a: {}", `{"a":{}}`},
		{"a: {x: 1, y: two}", `{"a":{"x":1,"y":"two"}}`},
		{"a: [one, [2, 3], {k: v}]", `{"a":["one",[2,3],{"k":"v"}]}`},
		{`a: ["q, uo", 'ted']`, `{"a":["q, uo","ted"]}`},
		{"a: [1, 2,]", `{"a":[1,2]}`},
	}
	for _, c := range cases {
		v := mustDecode(t, c.in)
		if got := jsonOf(t, v); got != c.want {
			t.Errorf("Decode(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestMultilineFlow(t *testing.T) {
	v := mustDecode(t, `
args:
  - [a,
     b,
     c]
`)
	want := `{"args":[["a","b","c"]]}`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestQuotedScalars(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{`a: "hello world"`, "hello world"},
		{`a: "line1\nline2"`, "line1\nline2"},
		{`a: "tab\there"`, "tab\there"},
		{`a: "unié"`, "unié"},
		{`a: 'single'`, "single"},
		{`a: 'it''s'`, "it's"},
		{`a: "42"`, "42"}, // quoted numbers stay strings
		{`a: "true"`, "true"},
		{`a: ""`, ""},
	}
	for _, c := range cases {
		m := mustDecode(t, c.in).(*Map)
		if got := m.Value("a"); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Decode(%q)[a] = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestComments(t *testing.T) {
	v := mustDecode(t, `
# leading comment
a: 1 # trailing comment
# interior
b: "val # not a comment"
c: [1, 2] # after flow
`)
	want := `{"a":1,"b":"val # not a comment","c":[1,2]}`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestLiteralBlockScalar(t *testing.T) {
	m := mustDecode(t, `
script: |
  def f(x):
      return x + 1

  print(f(1))
after: 1
`).(*Map)
	want := "def f(x):\n    return x + 1\n\nprint(f(1))\n"
	if got := m.Value("script"); got != want {
		t.Errorf("script = %q, want %q", got, want)
	}
	if m.Value("after") != int64(1) {
		t.Errorf("after = %#v", m.Value("after"))
	}
}

func TestLiteralBlockChomping(t *testing.T) {
	keep := mustDecode(t, "a: |+\n  x\n\n\nb: 1\n").(*Map)
	if got := keep.Value("a"); got != "x\n\n\n" {
		t.Errorf("keep = %q", got)
	}
	strip := mustDecode(t, "a: |-\n  x\n\nb: 1\n").(*Map)
	if got := strip.Value("a"); got != "x" {
		t.Errorf("strip = %q", got)
	}
	clip := mustDecode(t, "a: |\n  x\n\nb: 1\n").(*Map)
	if got := clip.Value("a"); got != "x\n" {
		t.Errorf("clip = %q", got)
	}
}

func TestFoldedBlockScalar(t *testing.T) {
	m := mustDecode(t, `
doc: >
  one two
  three

  new para
`).(*Map)
	want := "one two three\nnew para\n"
	if got := m.Value("doc"); got != want {
		t.Errorf("doc = %q, want %q", got, want)
	}
}

func TestBlockScalarDeeperIndent(t *testing.T) {
	m := mustDecode(t, "code: |\n  if x:\n    y = 1\n").(*Map)
	want := "if x:\n  y = 1\n"
	if got := m.Value("code"); got != want {
		t.Errorf("code = %q, want %q", got, want)
	}
}

func TestBlockScalarInSequence(t *testing.T) {
	m := mustDecode(t, `
expressionLib:
  - |
    def f(x):
        return x
`).(*Map)
	lib := m.GetSlice("expressionLib")
	if len(lib) != 1 {
		t.Fatalf("lib = %#v", lib)
	}
	want := "def f(x):\n    return x\n"
	if lib[0] != want {
		t.Errorf("lib[0] = %q, want %q", lib[0], want)
	}
}

func TestAnchorsAndAliases(t *testing.T) {
	v := mustDecode(t, `
base: &b
  x: 1
  y: 2
ref: *b
scalar: &s hello
use: *s
`)
	want := `{"base":{"x":1,"y":2},"ref":{"x":1,"y":2},"scalar":"hello","use":"hello"}`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestMergeKey(t *testing.T) {
	v := mustDecode(t, `
defaults: &d
  cores: 4
  mem: 8
job:
  <<: *d
  cores: 8
`)
	m := v.(*Map).GetMap("job")
	if m.GetInt("cores", 0) != 8 {
		t.Errorf("cores = %v", m.Value("cores"))
	}
	if m.GetInt("mem", 0) != 8 {
		t.Errorf("mem = %v", m.Value("mem"))
	}
}

func TestMultiDocument(t *testing.T) {
	docs, err := DecodeAll([]byte("---\na: 1\n---\nb: 2\n...\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs", len(docs))
	}
	if docs[0].(*Map).Value("a") != int64(1) || docs[1].(*Map).Value("b") != int64(2) {
		t.Errorf("docs = %v %v", docs[0], docs[1])
	}
}

func TestEmptyValues(t *testing.T) {
	v := mustDecode(t, "a:\nb: 1\n")
	m := v.(*Map)
	if got, ok := m.Get("a"); !ok || got != nil {
		t.Errorf("a = %#v ok=%v", got, ok)
	}
}

func TestPlainMultilineScalar(t *testing.T) {
	m := mustDecode(t, `
doc: This CWL workflow processes images by
  performing a series of tasks
next: 1
`).(*Map)
	want := "This CWL workflow processes images by performing a series of tasks"
	if got := m.Value("doc"); got != want {
		t.Errorf("doc = %q", got)
	}
}

func TestQuotedKeys(t *testing.T) {
	m := mustDecode(t, `"key: with colon": v1
'another key': v2
`).(*Map)
	if m.Value("key: with colon") != "v1" {
		t.Errorf("quoted key 1 = %#v (keys %v)", m.Value("key: with colon"), m.Keys())
	}
	if m.Value("another key") != "v2" {
		t.Errorf("quoted key 2 = %#v", m.Value("another key"))
	}
}

func TestURLValueNotSplit(t *testing.T) {
	m := mustDecode(t, "url: https://example.org/x\n").(*Map)
	if m.Value("url") != "https://example.org/x" {
		t.Errorf("url = %#v", m.Value("url"))
	}
}

func TestCWLDocument(t *testing.T) {
	// The echo tool from the paper's Listing 1.
	v := mustDecode(t, `
cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message:
    type: string
    default: "Hello World"
    inputBinding:
      position: 1
outputs:
  output:
    type: stdout
stdout: hello.txt
`)
	m := v.(*Map)
	if m.GetString("cwlVersion") != "v1.2" {
		t.Errorf("cwlVersion = %v", m.Value("cwlVersion"))
	}
	msg := m.GetMap("inputs").GetMap("message")
	if msg.GetString("type") != "string" {
		t.Errorf("type = %v", msg.Value("type"))
	}
	if msg.GetString("default") != "Hello World" {
		t.Errorf("default = %v", msg.Value("default"))
	}
	if msg.GetMap("inputBinding").GetInt("position", -1) != 1 {
		t.Errorf("position = %v", msg.GetMap("inputBinding").Value("position"))
	}
	if m.GetString("stdout") != "hello.txt" {
		t.Errorf("stdout = %v", m.Value("stdout"))
	}
}

func TestWorkflowDocument(t *testing.T) {
	// Condensed version of the paper's Listing 3.
	v := mustDecode(t, `
cwlVersion: v1.2
class: Workflow
requirements:
  - class: StepInputExpressionRequirement
inputs:
  input_image:
    type: File
  size:
    type: int
outputs:
  final_output:
    type: File
    outputSource: blur_image/output_image
steps:
  resize_image:
    run: resize_image.cwl
    in:
      input_image: input_image
      size: size
      output_image:
        valueFrom: "resized.png"
    out: [output_image]
`)
	m := v.(*Map)
	steps := m.GetMap("steps")
	if steps == nil {
		t.Fatal("no steps")
	}
	rs := steps.GetMap("resize_image")
	if rs.GetString("run") != "resize_image.cwl" {
		t.Errorf("run = %v", rs.Value("run"))
	}
	out := rs.GetSlice("out")
	if len(out) != 1 || out[0] != "output_image" {
		t.Errorf("out = %#v", out)
	}
	vf := rs.GetMap("in").GetMap("output_image")
	if vf.GetString("valueFrom") != "resized.png" {
		t.Errorf("valueFrom = %v", vf.Value("valueFrom"))
	}
}

func TestErrorTabIndent(t *testing.T) {
	if _, err := DecodeString("a:\n\tb: 1\n"); err == nil {
		t.Fatal("expected error for tab indentation")
	}
}

func TestErrorUnknownAnchor(t *testing.T) {
	if _, err := DecodeString("a: *missing\n"); err == nil {
		t.Fatal("expected error for unknown anchor")
	}
}

func TestErrorBadFlow(t *testing.T) {
	if _, err := DecodeString("a: [1, 2\n"); err == nil {
		t.Fatal("expected error for unterminated flow")
	}
}

func TestErrorLineNumber(t *testing.T) {
	_, err := DecodeString("ok: 1\na:\n\tb: 1\n")
	yerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if yerr.Line != 3 {
		t.Errorf("line = %d, want 3", yerr.Line)
	}
}

func TestDashOnlyScalar(t *testing.T) {
	m := mustDecode(t, `a: "-"`).(*Map)
	if m.Value("a") != "-" {
		t.Errorf("a = %#v", m.Value("a"))
	}
}

func TestDocumentStartMarkerWithContent(t *testing.T) {
	v := mustDecode(t, "--- 42\n")
	if v != int64(42) {
		t.Errorf("v = %#v", v)
	}
}

func TestTopLevelScalar(t *testing.T) {
	if v := mustDecode(t, "just a string\n"); v != "just a string" {
		t.Errorf("v = %#v", v)
	}
}

func TestTopLevelSequenceDoc(t *testing.T) {
	v := mustDecode(t, "- a: 1\n- b: 2\n")
	want := `[{"a":1},{"b":2}]`
	if got := jsonOf(t, v); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestStrTag(t *testing.T) {
	m := mustDecode(t, "a: !!str 42\n").(*Map)
	if got := m.Value("a"); got != "42" {
		t.Errorf("a = %#v, want \"42\"", got)
	}
}

func TestDeepNesting(t *testing.T) {
	var b strings.Builder
	depth := 30
	for i := 0; i < depth; i++ {
		b.WriteString(strings.Repeat("  ", i))
		b.WriteString("k:\n")
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString("leaf: 1\n")
	v := mustDecode(t, b.String())
	cur := v.(*Map)
	for i := 0; i < depth; i++ {
		cur = cur.GetMap("k")
		if cur == nil {
			t.Fatalf("lost nesting at depth %d", i)
		}
	}
	if cur.Value("leaf") != int64(1) {
		t.Errorf("leaf = %#v", cur.Value("leaf"))
	}
}

// TestFlowNestingBound: two million nested flow brackets, which overflowed
// the parser's stack before the bound, fail with an error naming it, in a
// sequence or a mapping; nesting at the bound decodes.
func TestFlowNestingBound(t *testing.T) {
	const deep = 2_000_000
	for _, src := range []string{
		"a: " + strings.Repeat("[", deep) + strings.Repeat("]", deep) + "\n",
		"a: " + strings.Repeat("{k: ", deep) + "1" + strings.Repeat("}", deep) + "\n",
	} {
		if _, err := Decode([]byte(src)); err == nil || !strings.Contains(err.Error(), "nested more than") {
			t.Errorf("%.20s...: err = %v, want the nesting error", src, err)
		}
	}
	ok := "a: " + strings.Repeat("[", maxFlowDepth) + strings.Repeat("]", maxFlowDepth) + "\n"
	if _, err := Decode([]byte(ok)); err != nil {
		t.Errorf("%d nested flow sequences: %v", maxFlowDepth, err)
	}
}

func TestCRLFInput(t *testing.T) {
	m := mustDecode(t, "a: 1\r\nb: 2\r\n").(*Map)
	if m.Value("a") != int64(1) || m.Value("b") != int64(2) {
		t.Errorf("m = %v", m)
	}
}

func TestNullVariants(t *testing.T) {
	m := mustDecode(t, "a: null\nb: ~\nc: Null\nd: NULL\n").(*Map)
	for _, k := range []string{"a", "b", "c", "d"} {
		if v, ok := m.Get(k); !ok || v != nil {
			t.Errorf("%s = %#v", k, v)
		}
	}
}

func TestAstralPlaneEscapes(t *testing.T) {
	// YAML 1.2 \U 8-digit escapes (what strconv.Quote emits for runes
	// beyond the BMP).
	m := mustDecode(t, `a: "\U0001F600 and é"`).(*Map)
	if m.Value("a") != "\U0001F600 and é" {
		t.Errorf("a = %q", m.Value("a"))
	}
	if _, err := DecodeString(`a: "\U00ZZZZZZ"`); err == nil {
		t.Error("bad \\U escape accepted")
	}
	if _, err := DecodeString(`a: "\U0001"`); err == nil {
		t.Error("truncated \\U escape accepted")
	}
}
