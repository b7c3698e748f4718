// Package pyexpr implements the inline-Python subset the paper's
// InlinePythonRequirement embeds in CWL documents: def functions with
// docstrings, f-strings, if/elif/else, for loops, raise, list
// comprehensions, and the str/list/dict methods the listings use. The README
// section "Inline Python: the supported subset" is the table of what is in
// it; testdata/cpython.txt pins each entry against CPython.
//
// Syntax outside the subset fails at compile time with an UnsupportedError;
// a builtin or method outside it raises NameError or AttributeError, as an
// undefined name does. Ints are 64-bit: arithmetic that leaves that range
// raises OverflowError rather than wrapping.
//
// Like the real feature (Python running inside the Parsl runner process),
// evaluation happens in-process — the architectural property behind the
// paper's Fig. 2 result.
package pyexpr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/exprcore"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNewline
	tIndent
	tDedent
	tNum
	tStr
	tFStr // raw f-string body, interpolations parsed later
	tName
	tOp
)

type token struct {
	kind  tokKind
	text  string
	num   float64
	isInt bool
	ival  int64
	line  int
}

// SyntaxError reports a Python parse failure.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("python syntax error at line %d: %s", e.Line, e.Msg)
}

// UnsupportedError reports valid Python outside the inline-Python subset.
// Compilation returns it, so a document using such a construct fails before
// any of it runs.
type UnsupportedError struct {
	Construct string // e.g. "while loop", "set literal"
	Line      int
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("python %s at line %d is outside the supported inline-Python subset", e.Construct, e.Line)
}

var pyKeywords = map[string]bool{
	"def": true, "return": true, "if": true, "elif": true, "else": true,
	"for": true, "while": true, "in": true, "not": true, "and": true,
	"or": true, "True": true, "False": true, "None": true, "break": true,
	"continue": true, "pass": true, "raise": true, "try": true,
	"except": true, "finally": true, "as": true, "lambda": true,
	"is": true, "del": true, "global": true, "import": true, "from": true,
	"class": true, "with": true, "yield": true, "assert": true,
}

type lexer struct {
	src     string
	pos     int
	line    int
	indents []int
	toks    []token
	paren   exprcore.Depth // bracket nesting: newlines inside brackets are ignored
}

func lexPy(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, indents: []int{0}}
	atLineStart := true
	for {
		if atLineStart && l.paren == 0 {
			if err := l.handleIndent(); err != nil {
				return nil, err
			}
			atLineStart = false
			continue
		}
		l.skipSpaces()
		if l.pos >= len(l.src) {
			break
		}
		c := l.src[l.pos]
		switch {
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\n':
			l.pos++
			l.line++
			if l.paren == 0 {
				// Collapse duplicate newlines.
				if len(l.toks) > 0 && l.toks[len(l.toks)-1].kind != tNewline && l.toks[len(l.toks)-1].kind != tIndent && l.toks[len(l.toks)-1].kind != tDedent {
					l.emit(token{kind: tNewline, line: l.line - 1})
				}
				atLineStart = true
			}
		case c == '\\' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n':
			l.pos += 2
			l.line++
		case exprcore.IsDigit(c), c == '.' && l.pos+1 < len(l.src) && exprcore.IsDigit(l.src[l.pos+1]):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '"' || c == '\'':
			if err := l.lexString(0); err != nil {
				return nil, err
			}
		case strings.IndexByte("fFrR", c) >= 0 && l.pos+1 < len(l.src) && (l.src[l.pos+1] == '"' || l.src[l.pos+1] == '\''):
			l.pos++
			if err := l.lexString(c | 0x20); err != nil { // lower case
				return nil, err
			}
		case exprcore.IsNameStart(rune(c), false) || c >= utf8.RuneSelf:
			if err := l.lexName(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
	}
	if len(l.toks) > 0 && l.toks[len(l.toks)-1].kind != tNewline {
		l.emit(token{kind: tNewline, line: l.line})
	}
	for len(l.indents) > 1 {
		l.indents = l.indents[:len(l.indents)-1]
		l.emit(token{kind: tDedent, line: l.line})
	}
	l.emit(token{kind: tEOF, line: l.line})
	return l.toks, nil
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpaces() {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\r') {
		l.pos++
	}
}

// handleIndent processes the leading whitespace of a logical line, emitting
// INDENT/DEDENT tokens.
func (l *lexer) handleIndent() error {
	for {
		width := 0
		for l.pos < len(l.src) {
			switch l.src[l.pos] {
			case ' ':
				width++
			case '\t':
				width += 8 - width%8
			case '\r':
			default:
				goto measured
			}
			l.pos++
		}
	measured:
		if l.pos >= len(l.src) {
			return nil
		}
		if l.src[l.pos] == '\n' {
			l.pos++
			l.line++
			continue // blank line: no indent change
		}
		if l.src[l.pos] == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		cur := l.indents[len(l.indents)-1]
		switch {
		case width > cur:
			l.indents = append(l.indents, width)
			l.emit(token{kind: tIndent, line: l.line})
		case width < cur:
			for len(l.indents) > 1 && l.indents[len(l.indents)-1] > width {
				l.indents = l.indents[:len(l.indents)-1]
				l.emit(token{kind: tDedent, line: l.line})
			}
			if l.indents[len(l.indents)-1] != width {
				return &SyntaxError{Line: l.line, Msg: "inconsistent indentation"}
			}
		}
		return nil
	}
}

func (l *lexer) lexNumber() error {
	start := l.pos
	isFloat := false
	l.pos = exprcore.Digits(l.src, l.pos, true)
	if l.pos < len(l.src) && l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || l.src[l.pos+1] != '.') {
		// not part of a name/method chain like 1..real; Python floats
		nxt := byte(0)
		if l.pos+1 < len(l.src) {
			nxt = l.src[l.pos+1]
		}
		if exprcore.IsDigit(nxt) || !exprcore.IsNameStart(rune(nxt), false) {
			isFloat = true
			l.pos = exprcore.Digits(l.src, l.pos+1, true)
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && exprcore.IsDigit(l.src[l.pos]) {
			isFloat = true
			l.pos = exprcore.Digits(l.src, l.pos, false)
		} else {
			l.pos = save
		}
	}
	text := strings.ReplaceAll(l.src[start:l.pos], "_", "")
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return &SyntaxError{Line: l.line, Msg: "bad float literal " + text}
		}
		l.emit(token{kind: tNum, num: f, text: text, line: l.line})
		return nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		if errors.Is(err, strconv.ErrRange) {
			return &UnsupportedError{Construct: "int literal beyond 64 bits", Line: l.line}
		}
		return &SyntaxError{Line: l.line, Msg: "bad number literal " + text}
	}
	l.emit(token{kind: tNum, isInt: true, ival: n, text: text, line: l.line})
	return nil
}

// lexString lexes a string literal whose prefix (0, 'f' or 'r') has been
// consumed. F-strings and raw strings keep their escapes as written; an
// f-string's are decoded when its parts are parsed.
func (l *lexer) lexString(prefix byte) error {
	quote := l.src[l.pos]
	startLine := l.line
	kind := tStr
	if prefix == 'f' {
		kind = tFStr
	}
	if closing := strings.Repeat(string(quote), 3); strings.HasPrefix(l.src[l.pos:], closing) {
		l.pos += 3
		end := strings.Index(l.src[l.pos:], closing)
		if end < 0 {
			return &SyntaxError{Line: startLine, Msg: "unterminated triple-quoted string"}
		}
		raw := l.src[l.pos : l.pos+end]
		l.line += strings.Count(raw, "\n")
		l.pos += end + 3
		l.emit(token{kind: kind, text: raw, line: startLine})
		return nil
	}
	var body strings.Builder
	for l.pos++; l.pos < len(l.src); {
		c := l.src[l.pos]
		switch {
		case c == quote:
			l.pos++
			l.emit(token{kind: kind, text: body.String(), line: startLine})
			return nil
		case c == '\n':
			return &SyntaxError{Line: startLine, Msg: "unterminated string literal"}
		case c == '\\' && l.pos+1 < len(l.src) && prefix == 0:
			text, n := unescape(l.src[l.pos+1:])
			body.WriteString(text)
			l.pos += 1 + n
		case c == '\\' && l.pos+1 < len(l.src):
			body.WriteString(l.src[l.pos : l.pos+2])
			l.pos += 2
		default:
			body.WriteByte(c)
			l.pos++
		}
	}
	return &SyntaxError{Line: startLine, Msg: "unterminated string literal"}
}

// unescape decodes the escape sequence after a backslash at the start of
// s, returning its text and how many bytes of s it used. Python adds \a and
// \UHHHHHHHH to the escapes the core knows, and an unknown escape keeps its
// backslash.
func unescape(s string) (string, int) {
	switch s[0] {
	case 'a':
		return "\a", 1
	case 'U':
		if r, ok := exprcore.HexRune(s[1:], 8); ok {
			return string(r), 9
		}
	}
	if text, n, ok := exprcore.Escape(s); ok {
		return text, n
	}
	return "\\" + s[:1], 1
}

func (l *lexer) lexName() error {
	end, err := exprcore.Name(l.src, l.pos, false)
	if err != nil {
		return &SyntaxError{Line: l.line, Msg: err.Error()}
	}
	l.emit(token{kind: tName, text: l.src[l.pos:end], line: l.line})
	l.pos = end
	return nil
}

var pyOps = []string{
	"**=", "//=",
	"**", "//", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
	"+", "-", "*", "/", "%", "(", ")", "[", "]", "{", "}", ",", ":", ";",
	".", "<", ">", "=",
}

// unsupportedOps are Python operators outside the subset, longest first.
var unsupportedOps = []string{
	"<<=", ">>=", "...", ":=", "->", "<<", ">>", "&=", "|=", "^=", "@=",
	"&", "|", "^", "~", "@",
}

func (l *lexer) lexOp() error {
	for _, op := range unsupportedOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			return &UnsupportedError{Construct: fmt.Sprintf("operator %q", op), Line: l.line}
		}
	}
	for _, op := range pyOps {
		if strings.HasPrefix(l.src[l.pos:], op) {
			switch op {
			case "(", "[", "{":
				if err := l.paren.Enter(); err != nil {
					return &SyntaxError{Line: l.line, Msg: err.Error()}
				}
			case ")", "]", "}":
				l.paren.Leave(1)
			}
			l.emit(token{kind: tOp, text: op, line: l.line})
			l.pos += len(op)
			return nil
		}
	}
	return &SyntaxError{Line: l.line, Msg: fmt.Sprintf("unexpected character %q", l.src[l.pos])}
}
