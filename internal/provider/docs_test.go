package provider

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// specConstants is what docs/PROTOCOL.md §1 must state, rendered the way the
// spec renders values: integers decimal, byte codes 0x-hex. Adding a protocol constant means adding it here AND to the spec
// table — the test fails when either side is missing or disagrees.
var specConstants = map[string]string{
	"ProtoVersion":     fmt.Sprintf("%d", ProtoVersion),
	"maxFrameBytes":    fmt.Sprintf("%d", maxFrameBytes),
	"maxHelloBytes":    fmt.Sprintf("%d", maxHelloBytes),
	"maxRecordBytes":   fmt.Sprintf("%d", maxRecordBytes),
	"defaultBatchMax":  fmt.Sprintf("%d", defaultBatchMax),
	"binKindTaskBatch": fmt.Sprintf("0x%02x", binKindTaskBatch),
	"binKindRespBatch": fmt.Sprintf("0x%02x", binKindRespBatch),
	"binKindBeat":      fmt.Sprintf("0x%02x", binKindBeat),
	"binKindDrain":     fmt.Sprintf("0x%02x", binKindDrain),
	"binKindBye":       fmt.Sprintf("0x%02x", binKindBye),
	"binFlagSharedDoc": fmt.Sprintf("0x%02x", binFlagSharedDoc),
	"binFlagDocInline": fmt.Sprintf("0x%02x", binFlagDocInline),
}

// TestProtocolSpecConstants keeps docs/PROTOCOL.md honest: its §1 constants
// table must name every protocol constant with the value the code actually
// uses, and must not name constants that no longer exist.
func TestProtocolSpecConstants(t *testing.T) {
	f, err := os.Open("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("opening the protocol spec: %v", err)
	}
	defer f.Close()

	// Only the "## 1. Constants" section's table is normative-by-machine;
	// later sections tabulate field layouts whose first cells also use
	// backquotes.
	documented := map[string]string{}
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inSection = strings.Contains(line, "Constants")
			continue
		}
		if !inSection {
			continue
		}
		name, value, ok := parseConstantRow(line)
		if !ok {
			continue
		}
		if prev, dup := documented[name]; dup {
			t.Errorf("spec documents %s twice (%s and %s)", name, prev, value)
		}
		documented[name] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading the protocol spec: %v", err)
	}
	if len(documented) == 0 {
		t.Fatal("found no constants table rows in docs/PROTOCOL.md")
	}

	for name, want := range specConstants {
		got, ok := documented[name]
		if !ok {
			t.Errorf("spec is missing constant %s (code value %s)", name, want)
			continue
		}
		if got != want {
			t.Errorf("spec says %s = %s, code says %s", name, got, want)
		}
	}
	for name, value := range documented {
		if _, ok := specConstants[name]; !ok {
			t.Errorf("spec documents %s = %s, which the code does not define (or docs_test.go does not check)", name, value)
		}
	}
}

// parseConstantRow extracts (name, value) from one constants-table row of
// the form `| `name` | value | meaning |`. Rows whose first cell is not a
// single backquoted identifier (headers, separators, prose tables) do not
// match. String values are backquote-wrapped in the table; the quotes
// inside are the comparison form.
func parseConstantRow(line string) (name, value string, ok bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "|") {
		return "", "", false
	}
	cells := strings.Split(line, "|")
	// "| a | b | c |" splits into ["", " a ", " b ", " c ", ""].
	if len(cells) < 4 {
		return "", "", false
	}
	first := strings.TrimSpace(cells[1])
	if len(first) < 3 || first[0] != '`' || first[len(first)-1] != '`' {
		return "", "", false
	}
	name = first[1 : len(first)-1]
	if name == "" || strings.ContainsAny(name, " `") {
		return "", "", false
	}
	value = strings.TrimSpace(cells[2])
	if value == "" || strings.HasPrefix(value, "-") {
		return "", "", false
	}
	return name, value, true
}
