// Package jsexpr implements the subset of JavaScript that CWL expressions use
// (InlineJavascriptRequirement): ES5-style expressions, function declarations
// for expressionLib, var/if/for/while/return statements, and the String,
// Array, Object, Math and JSON builtins that appear in real CWL documents.
//
// It is a tree-walking interpreter with a step budget, so a malformed
// expression cannot hang a workflow run.
package jsexpr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/exprcore"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNum
	tStr
	tIdent
	tPunct
)

type token struct {
	kind tokKind
	text string
	num  float64
	pos  int // byte offset, for error messages
}

// SyntaxError reports a parse failure with a byte offset into the source.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("javascript syntax error at offset %d: %s", e.Pos, e.Msg)
}

var jsKeywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true, "return": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"break": true, "continue": true, "true": true, "false": true,
	"null": true, "undefined": true, "typeof": true, "throw": true,
	"new": true, "in": true, "of": true, "instanceof": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
	open exprcore.Depth // brackets open at pos
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(token{kind: tEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case exprcore.IsDigit(c), c == '.' && l.pos+1 < len(l.src) && exprcore.IsDigit(l.src[l.pos+1]):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case exprcore.IsNameStart(rune(c), true) || c >= utf8.RuneSelf:
			if err := l.lexIdent(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexPunct(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) {
			switch l.src[l.pos+1] {
			case '/':
				for l.pos < len(l.src) && l.src[l.pos] != '\n' {
					l.pos++
				}
				continue
			case '*':
				end := strings.Index(l.src[l.pos+2:], "*/")
				if end < 0 {
					l.pos = len(l.src)
					return
				}
				l.pos += 2 + end + 2
				continue
			}
		}
		return
	}
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.pos += 2
		for l.pos < len(l.src) && exprcore.IsHexDigit(l.src[l.pos]) {
			l.pos++
		}
		n, err := strconv.ParseInt(l.src[start+2:l.pos], 16, 64)
		if err != nil {
			return &SyntaxError{Pos: start, Msg: "bad hex literal"}
		}
		l.emit(token{kind: tNum, num: float64(n), text: l.src[start:l.pos], pos: start})
		return nil
	}
	l.pos = exprcore.Digits(l.src, l.pos, false)
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos = exprcore.Digits(l.src, l.pos+1, false)
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		l.pos = exprcore.Digits(l.src, l.pos, false)
	}
	text := l.src[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return &SyntaxError{Pos: start, Msg: "bad number literal " + text}
	}
	l.emit(token{kind: tNum, num: f, text: text, pos: start})
	return nil
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			l.emit(token{kind: tStr, text: b.String(), pos: start})
			return nil
		}
		if c == '\\' {
			l.pos++
			if l.pos >= len(l.src) {
				break
			}
			text, n, ok := exprcore.Escape(l.src[l.pos:])
			switch e := l.src[l.pos]; {
			case ok:
				b.WriteString(text)
				l.pos += n
			case e == 'u' || e == 'x':
				return &SyntaxError{Pos: l.pos, Msg: `bad \` + string(e) + " escape"}
			default:
				b.WriteByte(e)
				l.pos++
			}
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return &SyntaxError{Pos: start, Msg: "unterminated string literal"}
}

func (l *lexer) lexIdent() error {
	end, err := exprcore.Name(l.src, l.pos, true)
	if err != nil {
		return &SyntaxError{Pos: l.pos, Msg: err.Error()}
	}
	l.emit(token{kind: tIdent, text: l.src[l.pos:end], pos: l.pos})
	l.pos = end
	return nil
}

// jsPunct lists multi-char operators longest-first.
var jsPunct = []string{
	"===", "!==", "**=", ">>>", "...",
	"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
	"++", "--", "**", "=>", "<<", ">>",
	"+", "-", "*", "/", "%", "(", ")", "[", "]", "{", "}", ",", ";", ":",
	"?", ".", "<", ">", "=", "!", "&", "|", "^", "~",
}

func (l *lexer) lexPunct() error {
	for _, p := range jsPunct {
		if strings.HasPrefix(l.src[l.pos:], p) {
			switch p {
			case "(", "[", "{":
				if err := l.open.Enter(); err != nil {
					return &SyntaxError{Pos: l.pos, Msg: err.Error()}
				}
			case ")", "]", "}":
				l.open.Leave(1)
			}
			l.emit(token{kind: tPunct, text: p, pos: l.pos})
			l.pos += len(p)
			return nil
		}
	}
	return &SyntaxError{Pos: l.pos, Msg: fmt.Sprintf("unexpected character %q", l.src[l.pos])}
}
