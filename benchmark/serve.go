package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stopTimeout is how long serve may take to exit after SIGTERM before the
// workload fails.
const stopTimeout = 10 * time.Second

// server is one live parsl-cwl-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan error
}

// startServe executes serve with args (plus -addr on an ephemeral port) and
// returns once it has printed its listen address. dir receives its log and
// temporary files; path is prepended to PATH.
func startServe(bin, dir, path string, args []string) (*server, error) {
	logFile, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "TMPDIR="+dir, "PATH="+path+string(os.PathListSeparator)+os.Getenv("PATH"))
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on http://"); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		// Wait only after stdout is drained: Wait closes the pipe.
		s.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case err := <-s.exited:
		log, _ := os.ReadFile(logFile.Name())
		return nil, fmt.Errorf("serve exited before listening: %v\n%s", err, log)
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-s.exited
		return nil, errors.New("serve did not print its listen address within 30s")
	}
}

// stop sends SIGTERM and waits for a clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("serve exit after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("serve did not exit within %s of SIGTERM", stopTimeout)
	}
}

// kill is the error-path teardown.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// snapshot is the part of a run snapshot the harness reads.
type snapshot struct {
	ID           string         `json:"id"`
	State        string         `json:"state"`
	Error        string         `json:"error"`
	CacheHit     bool           `json:"cacheHit"`
	ResultCached bool           `json:"resultCached"`
	Created      time.Time      `json:"createdAt"`
	Started      *time.Time     `json:"startedAt"`
	Finished     *time.Time     `json:"finishedAt"`
	Outputs      map[string]any `json:"outputs"`
}

func (s snapshot) terminal() bool {
	return s.State == "succeeded" || s.State == "failed" || s.State == "canceled"
}

// client speaks the REST API over a transport capped at nproc connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(ctx context.Context, method, path, key string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// encodeRequest renders the POST /runs body.
func encodeRequest(req request) ([]byte, error) {
	return json.Marshal(map[string]any{"cwl": req.doc, "inputs": req.inputs})
}

func (req request) key() string {
	if req.tenant < 0 {
		return ""
	}
	return tenantKey(req.tenant)
}

// post submits one run and returns its admission snapshot; any status but
// 201 is an error.
func (c *client) post(ctx context.Context, key string, body []byte) (snapshot, error) {
	status, data, err := c.do(ctx, http.MethodPost, "/runs", key, body)
	if err != nil {
		return snapshot{}, err
	}
	if status != http.StatusCreated {
		return snapshot{}, fmt.Errorf("POST /runs: %d %s", status, bytes.TrimSpace(data))
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return snapshot{}, fmt.Errorf("POST /runs: %w", err)
	}
	return snap, nil
}

// wait long-polls a run to its terminal state.
func (c *client) wait(ctx context.Context, key, id string) (snapshot, error) {
	status, data, err := c.do(ctx, http.MethodGet, "/runs/"+id+"?wait=1", key, nil)
	if err != nil {
		return snapshot{}, err
	}
	if status != http.StatusOK {
		return snapshot{}, fmt.Errorf("GET /runs/%s: %d %s", id, status, bytes.TrimSpace(data))
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return snapshot{}, fmt.Errorf("GET /runs/%s: %w", id, err)
	}
	if !snap.terminal() {
		return snap, fmt.Errorf("run %s still %s after wait", id, snap.State)
	}
	return snap, nil
}

func (c *client) get(ctx context.Context, path, key string) ([]byte, error) {
	status, data, err := c.do(ctx, http.MethodGet, path, key, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(data))
	}
	return data, nil
}

// clockTick is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat. The
// kernel ABI fixes it at 100 on Linux.
const clockTick = 100

type procStat struct {
	ppid  int
	ticks int64 // utime + stime + cutime + cstime
}

func readProcStat(pid int) (procStat, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, false
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return procStat{}, false
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); ppid is field 4; utime..cstime are 14..17.
	if len(f) < 15 {
		return procStat{}, false
	}
	ps := procStat{}
	ps.ppid, _ = strconv.Atoi(f[1])
	for _, s := range f[11:15] {
		n, _ := strconv.ParseInt(s, 10, 64)
		ps.ticks += n
	}
	return ps, true
}

// treeCPU is the user+system CPU seconds consumed so far by root and its
// live descendants, including every child they have already reaped (tool
// processes, exited workers).
func treeCPU(root int) float64 {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0
	}
	stats := map[int]procStat{}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if ps, ok := readProcStat(pid); ok {
			stats[pid] = ps
		}
	}
	var ticks int64
	for pid, ps := range stats {
		for p := pid; p > 1; p = stats[p].ppid {
			if p == root {
				ticks += ps.ticks
				break
			}
			if _, ok := stats[p]; !ok {
				break
			}
		}
	}
	return float64(ticks) / clockTick
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPU is this process's user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
