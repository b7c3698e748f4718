package exprcore

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// IsDigit reports whether c is an ASCII decimal digit.
func IsDigit(c byte) bool { return c >= '0' && c <= '9' }

// IsHexDigit reports whether c is an ASCII hexadecimal digit.
func IsHexDigit(c byte) bool {
	return IsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Digits returns the end of the run of decimal digits that starts at
// src[i]. With sep, '_' separators (Python's 1_000) belong to the run.
func Digits(src string, i int, sep bool) int {
	for i < len(src) && (IsDigit(src[i]) || sep && src[i] == '_') {
		i++
	}
	return i
}

// IsNameStart reports whether r can start a name: a letter or '_', and
// also '$' where dollar is set (JavaScript).
func IsNameStart(r rune, dollar bool) bool {
	return r == '_' || dollar && r == '$' || unicode.IsLetter(r)
}

// Name returns the end of the name that starts at src[pos], whose first
// byte the lexer has seen to be a name start or non-ASCII: name starts and
// digits. Where no name starts (a rune that is no letter, or invalid UTF-8)
// it returns an error naming the character, so a lexer that sends every
// non-ASCII byte here always advances or fails and never loops in place.
func Name(src string, pos int, dollar bool) (int, error) {
	end := pos
	for end < len(src) {
		r, size := utf8.DecodeRuneInString(src[end:])
		if !IsNameStart(r, dollar) && !unicode.IsDigit(r) {
			break
		}
		end += size
	}
	if end == pos {
		r, _ := utf8.DecodeRuneInString(src[pos:])
		return pos, fmt.Errorf("unexpected character %q", r)
	}
	return end, nil
}

// HexRune decodes the width hex digits at the start of s as one code
// point.
func HexRune(s string, width int) (rune, bool) {
	if len(s) < width {
		return 0, false
	}
	n, err := strconv.ParseUint(s[:width], 16, 32)
	if err != nil || n > unicode.MaxRune {
		return 0, false
	}
	return rune(n), true
}

// Escape decodes the escape sequence that follows a backslash at the start
// of s, which is not empty: one of \n \t \r \b \f \v \0 \\ \' \", a \xHH or
// a \uHHHH. It returns the decoded text and how many bytes of s the escape
// used. ok is false for any other character, and for a \x or \u whose hex
// digits are missing; what such a backslash means is the language's rule.
func Escape(s string) (text string, n int, ok bool) {
	if i := strings.IndexByte(`ntrbfv0\'"`, s[0]); i >= 0 {
		return "\n\t\r\b\f\v\x00\\'\""[i : i+1], 1, true
	}
	width := 0
	switch s[0] {
	case 'x':
		width = 2
	case 'u':
		width = 4
	default:
		return "", 0, false
	}
	r, ok := HexRune(s[1:], width)
	if !ok {
		return "", 0, false
	}
	return string(r), 1 + width, true
}
