package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running xmorphd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// startDaemon launches xmorphd on storePath with crash-safe commits and
// returns once /healthz answers.
func startDaemon(bin, storePath string, pool int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(storePath+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-store", storePath, "-addr", addr, "-durability",
		"-cache", strconv.Itoa(pool), "-access-log", "off")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start xmorphd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() { cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("xmorphd exited during start-up (see %s)", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("xmorphd did not answer /healthz within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit; a daemon that does not exit in 20 seconds is killed.
func (d *daemon) stop() error {
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("xmorphd did not drain within 20s; killed")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("xmorphd exited with %v", d.cmd.ProcessState)
	}
	return nil
}

// peakRSSMB reads the daemon's VmHWM from /proc.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client drives one daemon over a single keep-alive connection, one
// request in flight.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole response; the duration runs
// from just before the request is written to the last response byte.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	dur := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, data, dur, err
}

type queryBody struct {
	Doc    string `json:"doc"`
	Guard  string `json:"guard"`
	Query  string `json:"query,omitempty"`
	Format string `json:"format,omitempty"`
	Stream bool   `json:"stream,omitempty"`
}

// request renders an op as the HTTP request the service takes, with the
// status a success answers.
func request(o op) (method, path, ctype string, body []byte, okStatus int) {
	switch o.class {
	case cShred:
		return "POST", "/v1/docs/" + o.doc, "application/xml", o.xml, http.StatusCreated
	case cPatch:
		return "PATCH", "/v1/docs/" + o.doc, "text/plain", []byte(o.ed.script()), http.StatusOK
	case cDrop:
		return "DELETE", "/v1/docs/" + o.doc, "", nil, http.StatusNoContent
	}
	q := queryBody{Doc: o.doc, Guard: o.guard, Query: o.query}
	switch o.class {
	case cMorph:
		q.Format = "xml"
	case cStream:
		q.Format, q.Stream = "xml", true
	}
	body, _ = json.Marshal(q) // a struct of strings always marshals
	return "POST", "/v1/query", "application/json", body, http.StatusOK
}

// checkResponse verifies a successful answer against the values the
// benchmark computed from the generated document.
func checkResponse(o op, body []byte) error {
	switch o.class {
	case cMorph:
		return o.want.checkMorph(body)
	case cStream:
		return o.want.checkStream(body)
	case cJoinStream, cAdhoc, cXQuery:
		var r struct {
			XML    string `json:"xml"`
			Answer string `json:"answer"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		switch o.class {
		case cJoinStream:
			return o.want.checkJoinStream(r.XML)
		case cAdhoc:
			return o.want.checkAdhoc(r.XML)
		}
		return o.want.checkXQuery(r.Answer)
	case cShred:
		var r struct{ Nodes int }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Nodes != o.wantNodes {
			return fmt.Errorf("shred %s: %d nodes, want %d", o.doc, r.Nodes, o.wantNodes)
		}
	case cPatch:
		var r struct {
			Inserted   int `json:"nodes_inserted"`
			Deleted    int `json:"nodes_deleted"`
			ShapeDelta struct {
				Kind string `json:"kind"`
			} `json:"shape_delta"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return checkPatch(o, r.Inserted, r.Deleted, r.ShapeDelta.Kind == "unchanged")
	}
	return nil
}

func checkPatch(o op, inserted, deleted int, shapeKept bool) error {
	w := o.wantPatch
	if inserted != w.inserted || deleted != w.deleted || shapeKept != o.ed.keepsShape {
		return fmt.Errorf("patch %q: inserted %d, deleted %d, shape kept %v; want %d, %d, %v",
			o.ed.script(), inserted, deleted, shapeKept, w.inserted, w.deleted, o.ed.keepsShape)
	}
	return nil
}

// doer sends one untimed request and returns the status and body.
type doer func(method, path, ctype string, body []byte) (int, []byte, error)

func (c *client) untimed(method, path, ctype string, body []byte) (int, []byte, error) {
	status, resp, _, err := c.do(method, path, ctype, body)
	return status, resp, err
}

// checkDropped confirms a dropped document is gone: not listed, and a
// query on it answers 404.
func checkDropped(do doer, doc string) error {
	status, body, err := do("GET", "/v1/docs", "", nil)
	if err != nil {
		return err
	}
	var list struct{ Docs []string }
	if err := json.Unmarshal(body, &list); err != nil || status != http.StatusOK {
		return fmt.Errorf("list docs: status %d, %v", status, err)
	}
	for _, d := range list.Docs {
		if d == doc {
			return fmt.Errorf("drop %s: still listed", doc)
		}
	}
	q, _ := json.Marshal(queryBody{Doc: doc, Guard: streamGuard})
	status, _, err = do("POST", "/v1/query", "application/json", q)
	if err != nil {
		return err
	}
	if status != http.StatusNotFound {
		return fmt.Errorf("query on dropped %s: status %d, want 404", doc, status)
	}
	return nil
}

// serverCounters are the daemon-side counts read around the measured loop.
type serverCounters struct {
	blocksWritten, walBytes float64
	totalAlloc              float64
}

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

func (c *client) counters() (serverCounters, error) {
	var s serverCounters
	status, body, _, err := c.do("GET", "/metrics", "", nil)
	if err != nil || status != http.StatusOK {
		return s, fmt.Errorf("metrics: status %d, %v", status, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != "gauge" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		switch f[1] {
		case "kvstore_blocks_written":
			s.blocksWritten = v
		case "kvstore_wal_bytes":
			s.walBytes = v
		}
	}
	status, body, _, err = c.do("GET", "/debug/pprof/heap?debug=1", "", nil)
	if err != nil || status != http.StatusOK {
		return s, fmt.Errorf("heap profile: status %d, %v", status, err)
	}
	m := totalAllocRE.FindSubmatch(body)
	if m == nil {
		return s, errors.New("heap profile carries no TotalAlloc")
	}
	s.totalAlloc, err = strconv.ParseFloat(string(m[1]), 64)
	return s, err
}
