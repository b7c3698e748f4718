package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/yamlx"
)

// maxBodyBytes bounds request bodies so a single client cannot exhaust the
// server's memory with one giant document.
const maxBodyBytes = 8 << 20

// inProcessWait bounds how long POST /runs holds its reply for an in-process
// run (CachedDoc.InProcess) to finish, so an expression-only run is answered
// terminal in one round trip; a run still going at the bound is answered
// with its admission snapshot, as any other run is.
const inProcessWait = 5 * time.Millisecond

// submitBody is the JSON envelope accepted by POST /runs.
type submitBody struct {
	// CWL is the document source (YAML or JSON text).
	CWL string `json:"cwl"`
	// Inputs is the job order: a JSON object, or a string of YAML.
	Inputs json.RawMessage `json:"inputs,omitempty"`
	Name   string          `json:"name,omitempty"`
	// Priority orders the queue (higher first).
	Priority int `json:"priority,omitempty"`
	// Provider pins the run to one of the service's execution providers
	// (local|process|sim, as configured); "" uses the default.
	Provider string `json:"provider,omitempty"`
	// WalltimeSeconds bounds the whole run: past it the run context expires,
	// in-flight tasks are failed by the deadline watchdog, and the run fails
	// (0 = unbounded).
	WalltimeSeconds float64 `json:"walltimeSeconds,omitempty"`
}

// taskEventJSON is the wire form of one parsl.TaskEvent.
type taskEventJSON struct {
	TaskID int       `json:"taskId"`
	App    string    `json:"app"`
	State  string    `json:"state"`
	Time   time.Time `json:"time"`
	Tries  int       `json:"tries,omitempty"`
	// WaitSeconds rides on the first launched event (submission → launch)
	// and on terminal events of tasks that never launched.
	WaitSeconds float64 `json:"waitSeconds,omitempty"`
	// ExecSeconds rides on terminal events (first launch → terminal).
	ExecSeconds float64 `json:"execSeconds,omitempty"`
}

// Handler returns the REST API over this service:
//
//	POST   /runs             submit a run  {"cwl": "...", "inputs": {...}}
//	GET    /runs             list runs (the caller's own, in tenant mode)
//	GET    /runs/{id}        one run (?wait=1 blocks until terminal)
//	GET    /runs/{id}/events the run's DFK task-event log
//	DELETE /runs/{id}        cancel a queued or running run
//	GET    /healthz          liveness + load/cache stats
//	GET    /metrics          Prometheus text exposition (unless disabled)
//
// With a tenant registry configured, every /runs* route requires an API key
// (Authorization: Bearer <key>, or X-API-Key) unless the registry defines
// the reserved default tenant for anonymous traffic; each tenant sees and
// controls only its own runs. /healthz and /metrics stay open — they are the
// operator surface, typically firewalled separately.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if !s.opts.DisableMetrics {
		mux.Handle("GET /metrics", obs.Handler(obs.Default(), s.reg))
	}
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleGet)
	mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	return mux
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "stats": s.Stats()})
}

// authTenant resolves the request's tenant. Without a registry every request
// is the default tenant; with one, the API key must authenticate — except
// anonymous requests, which map to the reserved default tenant when the
// registry chooses to define it.
func (s *Service) authTenant(r *http.Request) (string, error) {
	reg := s.opts.Tenants
	if reg == nil {
		return tenant.DefaultName, nil
	}
	key := apiKey(r)
	if key == "" {
		if _, ok := reg.Get(tenant.DefaultName); ok {
			return tenant.DefaultName, nil
		}
		return "", ErrUnauthorized
	}
	t, ok := reg.Authenticate(key)
	if !ok {
		return "", ErrUnauthorized
	}
	return t.Name, nil
}

// apiKey extracts the client credential: an Authorization Bearer token, or
// the X-API-Key header.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(rest)
		}
		return strings.TrimSpace(h)
	}
	return r.Header.Get("X-API-Key")
}

// authorizeRun checks that the request's tenant owns the run. A foreign run
// reports ErrNotFound, not 403 — run IDs are sequential, and a 403 would
// confirm another tenant's run exists.
func (s *Service) authorizeRun(r *http.Request, id string) error {
	tn, err := s.authTenant(r)
	if err != nil {
		return err
	}
	if s.opts.Tenants == nil {
		return nil
	}
	snap, ok := s.store.Get(id)
	if !ok {
		return ErrNotFound
	}
	if tenantLabel(snap.Tenant) != tn {
		return ErrNotFound
	}
	return nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, err := s.authTenant(r)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("request body too large"))
		return
	}
	req, err := parseSubmitBody(r.Header.Get("Content-Type"), body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// An HTTP request deadline (server write timeout, client timeout header
	// middleware) becomes the run deadline when the body set none.
	if dl, ok := r.Context().Deadline(); ok && req.Deadline.IsZero() {
		req.Deadline = dl
	}
	req.Tenant = tn
	snap, inProc, err := s.submit(req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	// The run is admitted, journaled and enqueued; only the reply waits, and
	// only for an in-process run, at most inProcessWait. Every other run, and
	// a wait that ends early (the bound, a client gone, shutdown), is answered
	// with the admission snapshot.
	if inProc && !snap.State.Terminal() {
		ctx, cancel := context.WithTimeout(r.Context(), inProcessWait)
		defer cancel()
		if done, err := s.Wait(ctx, snap.ID); err == nil {
			snap = done
		}
	}
	w.Header().Set("Location", "/runs/"+snap.ID)
	writeJSON(w, http.StatusCreated, snap)
}

// parseSubmitBody accepts either the JSON envelope or, for yaml/plain
// content types, the raw CWL document itself (no inputs).
func parseSubmitBody(contentType string, body []byte) (SubmitRequest, error) {
	ct := strings.ToLower(strings.TrimSpace(strings.SplitN(contentType, ";", 2)[0]))
	if strings.Contains(ct, "yaml") || ct == "text/plain" {
		return SubmitRequest{Source: body}, nil
	}
	var env submitBody
	if err := json.Unmarshal(body, &env); err != nil {
		return SubmitRequest{}, fmt.Errorf("request body is not valid JSON: %w", err)
	}
	if strings.TrimSpace(env.CWL) == "" {
		return SubmitRequest{}, errors.New(`request is missing the "cwl" field`)
	}
	inputs, err := decodeInputs(env.Inputs)
	if err != nil {
		return SubmitRequest{}, err
	}
	req := SubmitRequest{
		Source:   []byte(env.CWL),
		Inputs:   inputs,
		Name:     env.Name,
		Priority: env.Priority,
		Provider: env.Provider,
	}
	if env.WalltimeSeconds > 0 {
		req.Deadline = time.Now().Add(time.Duration(env.WalltimeSeconds * float64(time.Second)))
	}
	return req, nil
}

// decodeInputs turns the request's inputs field — a JSON object, a YAML
// string, or null — into the ordered map form the engine accepts.
func decodeInputs(raw json.RawMessage) (*yamlx.Map, error) {
	trimmed := strings.TrimSpace(string(raw))
	if len(trimmed) == 0 || trimmed == "null" {
		return nil, nil
	}
	if strings.HasPrefix(trimmed, `"`) {
		// A string of YAML, e.g. "message: hi\n".
		var text string
		if err := json.Unmarshal(raw, &text); err != nil {
			return nil, fmt.Errorf("inputs: %w", err)
		}
		v, err := yamlx.Decode([]byte(text))
		if err != nil {
			return nil, fmt.Errorf("inputs YAML: %w", err)
		}
		if v == nil {
			return nil, nil
		}
		m, ok := v.(*yamlx.Map)
		if !ok {
			return nil, errors.New("inputs YAML must be a mapping")
		}
		return m, nil
	}
	// JSON decoding preserves object key order and types integers as int64,
	// matching the YAML loader (yamlx.DecodeJSON).
	v, err := yamlx.DecodeJSON([]byte(trimmed))
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	m, ok := v.(*yamlx.Map)
	if !ok {
		return nil, errors.New("inputs must be a JSON object")
	}
	return m, nil
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	tn, err := s.authTenant(r)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	runs := s.List()
	if s.opts.Tenants != nil {
		own := runs[:0]
		for _, snap := range runs {
			if tenantLabel(snap.Tenant) == tn {
				own = append(own, snap)
			}
		}
		runs = own
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.authorizeRun(r, id); err != nil {
		writeServiceError(w, err)
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" && wait != "0" && wait != "false" {
		snap, err := s.Wait(r.Context(), id)
		if errors.Is(err, ErrNotFound) {
			writeServiceError(w, err)
			return
		}
		// A client timeout, or the server shutting down, still reports the
		// run's current state.
		writeJSON(w, http.StatusOK, snap)
		return
	}
	snap, ok := s.Get(id)
	if !ok {
		writeServiceError(w, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.authorizeRun(r, id); err != nil {
		writeServiceError(w, err)
		return
	}
	snap, ok := s.store.Get(id)
	if !ok {
		writeServiceError(w, ErrNotFound)
		return
	}
	events := s.dfk.EventsFor(id)
	out := make([]taskEventJSON, len(events))
	for i, ev := range events {
		out[i] = taskEventJSON{
			TaskID:      ev.TaskID,
			App:         ev.App,
			State:       ev.State.String(),
			Time:        ev.Time,
			Tries:       ev.Tries,
			WaitSeconds: ev.WaitDur.Seconds(),
			ExecSeconds: ev.ExecDur.Seconds(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runId": id, "events": out, "spans": runSpans(snap, events)})
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.authorizeRun(r, r.PathValue("id")); err != nil {
		writeServiceError(w, err)
		return
	}
	snap, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// writeServiceError maps the service's typed errors onto HTTP statuses.
func writeServiceError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalidDocument), errors.Is(err, ErrUnknownProvider):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnauthorized):
		status = http.StatusUnauthorized
		w.Header().Set("WWW-Authenticate", `Bearer realm="parsl-cwl-serve"`)
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrAlreadyFinished):
		status = http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuotaExceeded):
		status = http.StatusTooManyRequests
		// Retry-After comes from the service's drain-rate estimate when the
		// error carries one (queue depth / completion rate); the constant is
		// only the fallback for errors raised outside the admission path.
		after := "1"
		var ra interface{ RetryAfterSeconds() int }
		if errors.As(err, &ra) {
			after = fmt.Sprint(ra.RetryAfterSeconds())
		}
		w.Header().Set("Retry-After", after)
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
