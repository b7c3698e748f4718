package exprcore

import (
	"errors"
	"maps"
	"sync"
)

// Scope is one lexical scope: its bindings and the scope it nests in.
type Scope struct {
	Vars   map[string]any
	Parent *Scope
	// Frozen marks the shared global scope once evaluation has begun.
	// Evaluations never write to a frozen scope, which is what lets them
	// run concurrently.
	Frozen bool
}

// NewScope returns an empty scope nested in parent (nil for a global
// scope).
func NewScope(parent *Scope) *Scope { return &Scope{Vars: map[string]any{}, Parent: parent} }

// Lookup finds name in s or the scopes it nests in, innermost first.
func (s *Scope) Lookup(name string) (any, bool) {
	for sc := s; sc != nil; sc = sc.Parent {
		if v, ok := sc.Vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Define binds name in s itself.
func (s *Scope) Define(name string, v any) { s.Vars[name] = v }

// ErrSealed is returned by Globals.Loadable once evaluation has begun.
var ErrSealed = errors.New("LoadLib called after evaluation started (global scope is sealed)")

// Globals is an interpreter's global scope: the builtins, then what its
// libraries define. The first evaluation seals it (Begin). From then on one
// interpreter evaluates compiled programs from many goroutines at once,
// each evaluation in its own scope below the frozen globals. Freezing the
// bindings cannot isolate a library global that an expression can mutate in
// place (an array, a dict, a closure over a non-global scope), so on an
// interpreter whose library left one, evaluations take turns instead.
type Globals struct {
	Scope *Scope
	// builtins is the scope before any library loaded, so sealing can tell
	// library-defined globals apart from the standard ones.
	builtins map[string]any
	mutable  func(v any) bool
	once     sync.Once
	// serialize, decided at sealing, makes evaluations take mu.
	serialize bool
	mu        sync.Mutex
}

// NewGlobals wraps scope, which holds only the builtins so far. mutable
// reports whether a library-defined global carries state an expression
// could mutate in place.
func NewGlobals(scope *Scope, mutable func(v any) bool) *Globals {
	return &Globals{Scope: scope, builtins: maps.Clone(scope.Vars), mutable: mutable}
}

// Loadable returns ErrSealed once evaluation has begun: every library must
// load before the first evaluation.
func (g *Globals) Loadable() error {
	if g.Scope.Frozen {
		return ErrSealed
	}
	return nil
}

// Begin starts one evaluation. The first Begin seals the globals; on an
// interpreter whose library holds mutable state, Begin also takes the lock
// that serializes evaluations. Each Begin is paired with an End.
func (g *Globals) Begin() {
	if g.Serialized() {
		g.mu.Lock()
	}
}

// End finishes an evaluation that Begin started.
func (g *Globals) End() {
	if g.serialize {
		g.mu.Unlock()
	}
}

// Serialized seals the globals, if no evaluation has yet, and reports
// whether sealing found mutable library state, so that evaluations take
// turns.
func (g *Globals) Serialized() bool {
	g.once.Do(g.seal)
	return g.serialize
}

func (g *Globals) seal() {
	g.Scope.Frozen = true
	for k, v := range g.Scope.Vars {
		if bv, ok := g.builtins[k]; ok && bv == v {
			continue
		}
		if g.mutable(v) {
			g.serialize = true
			return
		}
	}
}

// CallScope returns the scope one evaluation runs in: below the globals,
// binding vars converted by conv to the language's values.
func (g *Globals) CallScope(vars map[string]any, conv func(any) any) *Scope {
	s := NewScope(g.Scope)
	for k, v := range vars {
		s.Vars[k] = conv(v)
	}
	return s
}
