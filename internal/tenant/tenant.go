// Package tenant is the multi-tenancy policy layer of the submission
// service: a registry of API tenants (key, fair-share weight, quotas). It
// holds policy only; usage (the CPU-seconds ledger) is metered by the
// service's run store.
//
// The registry is loaded from a YAML config file (parsl-cwl-serve
// -tenant-config) or built programmatically. Authentication compares the
// presented API key against every registered key in constant time — like the
// network fabric's shared-secret check, a timing side channel must not let a
// caller binary-search someone else's key.
//
// Policy semantics (enforced by internal/service, documented in
// docs/TENANCY.md):
//
//   - Weight is the tenant's fair-share weight: under saturation a tenant
//     with weight 2 completes twice the runs of a tenant with weight 1.
//   - MaxQueued bounds the tenant's queued (not yet running) runs; past it
//     submissions are shed with 429 without touching other tenants' share.
//   - MaxRunning bounds the tenant's concurrently executing runs; the
//     scheduler skips a capped tenant's queue instead of blocking a worker.
//   - CPUSeconds budgets whole-run execution time; once consumed, further
//     submissions are shed until an operator raises the budget or the
//     service restarts (the ledger is in memory, so a restart resets it).
//   - Private opts the tenant out of the cross-tenant shared result cache,
//     both reads and writes.
package tenant

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"os"

	"repro/internal/yamlx"
)

// DefaultName is the tenant every request maps to when no registry is
// configured (open, single-tenant mode). The name is reserved: a registry may
// define it (to give anonymous traffic a weight and quotas), but it carries
// no API key and never authenticates.
const DefaultName = "default"

// Tenant is one API tenant: identity, fair-share weight, and quotas.
// A zero quota field means "unlimited".
type Tenant struct {
	// Name identifies the tenant in run snapshots, metrics labels, and logs.
	Name string
	// Key is the tenant's API key (Authorization: Bearer <key>). Empty is
	// only legal for the reserved default tenant.
	Key string
	// Weight is the fair-share weight (>= 1; 0 selects 1).
	Weight int
	// MaxQueued bounds the tenant's queued runs (0 = unlimited).
	MaxQueued int
	// MaxRunning bounds the tenant's concurrently executing runs
	// (0 = unlimited).
	MaxRunning int
	// CPUSeconds is the tenant's whole-run execution-time budget in seconds
	// (0 = unlimited). The service meters consumed time in memory, so a
	// restart resets it.
	CPUSeconds float64
	// Private keeps the tenant's run results out of the shared cross-tenant
	// result cache (neither served from it nor inserted into it).
	Private bool
}

// normalized returns the tenant with defaults applied.
func (t Tenant) normalized() Tenant {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	return t
}

// Registry holds the configured tenants. It is immutable once built, so all
// methods are safe for concurrent use without a lock.
type Registry struct {
	byName map[string]Tenant
	names  []string // registration order, for stable iteration
}

// NewRegistry builds a registry from explicit tenants, validating that names
// and keys are unique and that every non-default tenant has a key.
func NewRegistry(tenants ...Tenant) (*Registry, error) {
	r := &Registry{byName: map[string]Tenant{}}
	keys := map[string]string{}
	for _, t := range tenants {
		t = t.normalized()
		if t.Name == "" {
			return nil, errors.New("tenant: tenant with empty name")
		}
		if _, ok := r.byName[t.Name]; ok {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", t.Name)
		}
		if t.Key == "" && t.Name != DefaultName {
			return nil, fmt.Errorf("tenant: tenant %q has no API key", t.Name)
		}
		if t.Key != "" {
			if other, ok := keys[t.Key]; ok {
				return nil, fmt.Errorf("tenant: tenants %q and %q share an API key", other, t.Name)
			}
			keys[t.Key] = t.Name
		}
		r.byName[t.Name] = t
		r.names = append(r.names, t.Name)
	}
	if len(r.names) == 0 {
		return nil, errors.New("tenant: registry has no tenants")
	}
	return r, nil
}

// Load reads a YAML tenant config file:
//
//	tenants:
//	  - name: acme
//	    key: acme-secret-key
//	    weight: 2
//	    maxQueued: 32
//	    maxRunning: 8
//	    cpuSeconds: 3600
//	    private: false
func Load(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	r, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return r, nil
}

// Parse builds a registry from YAML config source (see Load for the shape).
func Parse(src []byte) (*Registry, error) {
	v, err := yamlx.Decode(src)
	if err != nil {
		return nil, err
	}
	root, ok := v.(*yamlx.Map)
	if !ok {
		return nil, errors.New("config must be a mapping with a tenants list")
	}
	items, ok := root.Value("tenants").([]any)
	if !ok {
		return nil, errors.New(`config is missing the "tenants" list`)
	}
	tenants := make([]Tenant, 0, len(items))
	for i, item := range items {
		m, ok := item.(*yamlx.Map)
		if !ok {
			return nil, fmt.Errorf("tenants[%d] must be a mapping", i)
		}
		for _, k := range m.Keys() {
			switch k {
			case "name", "key", "weight", "maxQueued", "maxRunning", "cpuSeconds", "private":
			default:
				return nil, fmt.Errorf("tenants[%d]: unknown field %q", i, k)
			}
		}
		cpu, err := floatField(m, "cpuSeconds")
		if err != nil {
			return nil, fmt.Errorf("tenants[%d]: %w", i, err)
		}
		tenants = append(tenants, Tenant{
			Name:       m.GetString("name"),
			Key:        m.GetString("key"),
			Weight:     m.GetInt("weight", 0),
			MaxQueued:  m.GetInt("maxQueued", 0),
			MaxRunning: m.GetInt("maxRunning", 0),
			CPUSeconds: cpu,
			Private:    m.GetBool("private", false),
		})
	}
	return NewRegistry(tenants...)
}

// floatField reads an optional numeric field that YAML may have decoded as
// an integer or a float.
func floatField(m *yamlx.Map, key string) (float64, error) {
	v, ok := m.Get(key)
	if !ok || v == nil {
		return 0, nil
	}
	switch n := v.(type) {
	case float64:
		return n, nil
	case int64:
		return float64(n), nil
	case int:
		return float64(n), nil
	default:
		return 0, fmt.Errorf("field %q must be a number, got %T", key, v)
	}
}

// Authenticate resolves an API key to its tenant. Every registered key is
// compared in constant time, with no early exit on a match, so response
// timing does not reveal how close a guess came.
func (r *Registry) Authenticate(key string) (Tenant, bool) {
	if key == "" {
		return Tenant{}, false
	}
	var (
		found Tenant
		ok    bool
	)
	for _, name := range r.names {
		t := r.byName[name]
		if t.Key != "" && subtle.ConstantTimeCompare([]byte(t.Key), []byte(key)) == 1 {
			found, ok = t, true
		}
	}
	return found, ok
}

// Get returns the named tenant.
func (r *Registry) Get(name string) (Tenant, bool) {
	t, ok := r.byName[name]
	return t, ok
}

// Names returns the tenant names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Len reports the number of registered tenants.
func (r *Registry) Len() int { return len(r.names) }
