package tenant

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNewRegistryValidation(t *testing.T) {
	cases := []struct {
		name    string
		tenants []Tenant
		wantErr string
	}{
		{"empty", nil, "no tenants"},
		{"empty name", []Tenant{{Key: "k"}}, "empty name"},
		{"duplicate name", []Tenant{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}, "duplicate"},
		{"missing key", []Tenant{{Name: "a"}}, "no API key"},
		{"shared key", []Tenant{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}, "share an API key"},
		{"ok", []Tenant{{Name: "a", Key: "ka"}, {Name: "b", Key: "kb"}}, ""},
		{"default without key", []Tenant{{Name: DefaultName}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRegistry(tc.tenants...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewRegistry = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewRegistry = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseConfig(t *testing.T) {
	reg, err := Parse([]byte(`tenants:
  - name: acme
    key: acme-secret
    weight: 2
    maxQueued: 32
    maxRunning: 8
    cpuSeconds: 3600
  - name: initech
    key: initech-secret
    private: true
  - name: default
    weight: 1
`))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("Len = %d", reg.Len())
	}
	acme, ok := reg.Get("acme")
	if !ok || acme.Weight != 2 || acme.MaxQueued != 32 || acme.MaxRunning != 8 || acme.CPUSeconds != 3600 || acme.Private {
		t.Errorf("acme = %+v", acme)
	}
	ini, ok := reg.Get("initech")
	if !ok || !ini.Private || ini.Weight != 1 {
		t.Errorf("initech = %+v (weight should default to 1)", ini)
	}
	if got := reg.Names(); len(got) != 3 || got[0] != "acme" || got[2] != DefaultName {
		t.Errorf("Names = %v", got)
	}
}

func TestParseRejectsBadConfigs(t *testing.T) {
	for name, src := range map[string]string{
		"not a mapping":  `- a`,
		"missing list":   `other: 1`,
		"item not a map": "tenants:\n  - just-a-string\n",
		"unknown field":  "tenants:\n  - name: a\n    key: k\n    speed: 9\n",
		"bad cpuSeconds": "tenants:\n  - name: a\n    key: k\n    cpuSeconds: fast\n",
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, src)
		}
	}
}

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.yaml")
	if err := os.WriteFile(path, []byte("tenants:\n  - name: a\n    key: ka\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("a"); !ok {
		t.Error("tenant a not loaded")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "absent.yaml")); err == nil {
		t.Error("Load of a missing file succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	os.WriteFile(bad, []byte("tenants: 7"), 0o600)
	if _, err := Load(bad); err == nil {
		t.Error("Load of a malformed file succeeded")
	}
}

func TestAuthenticate(t *testing.T) {
	reg, err := NewRegistry(
		Tenant{Name: "a", Key: "key-a"},
		Tenant{Name: "b", Key: "key-b"},
		Tenant{Name: DefaultName}, // keyless: must never authenticate
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Authenticate("key-b"); !ok || got.Name != "b" {
		t.Errorf("Authenticate(key-b) = %+v, %v", got, ok)
	}
	if _, ok := reg.Authenticate("key-x"); ok {
		t.Error("unknown key authenticated")
	}
	// An empty key must not resolve to the keyless default tenant.
	if _, ok := reg.Authenticate(""); ok {
		t.Error("empty key authenticated")
	}
	// Prefixes of a real key must not match.
	if _, ok := reg.Authenticate("key-"); ok {
		t.Error("key prefix authenticated")
	}
}

func TestLoadWrapsErrors(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.yaml"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load error = %v, want wrapped fs error", err)
	}
}
