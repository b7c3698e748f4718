// Package exprcore is the machinery the JavaScript (jsexpr) and Python
// (pyexpr) expression interpreters share: the bounds that stop a runaway or
// hostile expression, the lexical scope, the sealed global scope that lets
// one interpreter evaluate from many goroutines at once, and the scanning
// both lexers do. Each language keeps its own lexer, parser, values and
// semantics, and maps the typed errors returned here to its own errors.
package exprcore

import (
	"errors"
	"fmt"
)

const (
	// MaxSteps bounds the work of one evaluation, or of loading one
	// library: generous for any realistic CWL expression but small enough
	// to stop a runaway loop quickly.
	MaxSteps = 5_000_000
	// MaxCallDepth bounds how deeply user-defined functions may call each
	// other (CPython's default recursion limit), so unbounded recursion
	// fails with the language's error instead of overflowing the Go stack.
	MaxCallDepth = 1000
	// MaxNesting bounds how deeply source nests (CPython's parser stops at
	// 200 nested brackets). Each bracket, statement block, unary operand and
	// link of an operator or member chain counts as one level, so an
	// evaluator, which recurses once per level, never recurses deeper than
	// this within one function.
	MaxNesting = 200
)

// Lang names a front end in the errors the core formats.
type Lang struct {
	Name string // the language, e.g. "javascript"
	Pos  string // what a source position counts, e.g. "offset" or "line"
}

// StepError reports an evaluation that used its whole step budget.
type StepError struct {
	Lang  *Lang
	Limit int // the budget, in steps
	Pos   int // where the step past the budget was, in Lang.Pos units
}

// Error reports the budget and where it ran out, in the language's terms.
func (e *StepError) Error() string {
	return fmt.Sprintf("%s evaluation exceeded %d steps (%s %d): possible infinite loop", e.Lang.Name, e.Limit, e.Lang.Pos, e.Pos)
}

// ErrCallDepth is returned by Meter.Call past MaxCallDepth active calls.
// JavaScript throws it as a RangeError, Python raises it as a
// RecursionError.
var ErrCallDepth = errors.New("call depth exceeded")

// ErrNesting is returned by Depth.Enter past MaxNesting. Its text is the
// message of the syntax error each language reports.
var ErrNesting = fmt.Errorf("expression nested more than %d levels deep", MaxNesting)

// Meter counts one evaluation's steps against its budget and its active
// function calls against MaxCallDepth. An evaluator holds one by value and
// ticks it once per statement or expression it evaluates.
type Meter struct {
	lang  *Lang
	steps int
	limit int
	calls int
}

// NewMeter returns a meter with a budget of limit steps.
func NewMeter(lang *Lang, limit int) Meter { return Meter{lang: lang, limit: limit} }

// Tick counts one step at source position pos. Past the budget it returns
// a *StepError.
func (m *Meter) Tick(pos int) error {
	if m.steps++; m.steps > m.limit {
		return &StepError{Lang: m.lang, Limit: m.limit, Pos: pos}
	}
	return nil
}

// Call enters one more function call. Past MaxCallDepth it returns
// ErrCallDepth and the call must not run; every Call that succeeds is
// paired with a Return.
func (m *Meter) Call() error {
	if m.calls >= MaxCallDepth {
		return ErrCallDepth
	}
	m.calls++
	return nil
}

// Return leaves a call that Call entered.
func (m *Meter) Return() { m.calls-- }

// Depth counts how deeply a lexer or parser is nested in the source.
type Depth int

// Enter goes one level deeper. Past MaxNesting it returns ErrNesting.
func (d *Depth) Enter() error {
	if *d++; *d > MaxNesting {
		return ErrNesting
	}
	return nil
}

// Leave goes n levels back out, never below zero: a lexer also sees
// closing brackets that the source never opened.
func (d *Depth) Leave(n int) { *d = max(*d-Depth(n), 0) }

// Ctrl is the control-flow signal a statement passes up to the statement
// or call that handles it.
type Ctrl struct {
	Kind  CtrlKind
	Value any // the returned value, for Return
}

// CtrlKind says which signal a Ctrl is.
type CtrlKind int

// The control-flow signals.
const (
	Return CtrlKind = iota + 1
	Break
	Continue
)
