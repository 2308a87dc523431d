package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the load process's connection budget to the daemon.
const maxConns = 2

// requestIDHeader is the daemon's request-correlation header.
const requestIDHeader = "X-Request-Id"

// sample is one client request as the load process saw it: the client span
// of the trace. Due equals Sent for closed-loop requests.
type sample struct {
	Kind      string
	ReqID     string
	Due       time.Time
	Sent      time.Time
	Done      time.Time
	Status    int
	ReqBytes  int
	RespBytes int
}

// latency is the request's latency charged from its due time.
func (s sample) latency() time.Duration {
	lat, _ := openLoopTiming(s.Due, s.Sent, s.Done)
	return lat
}

// client issues the benchmark's requests over at most maxConns
// connections and records every request it sends while recording is on.
type client struct {
	base  string
	hc    *http.Client
	ids   bool          // stamp X-Request-Id (traced runs)
	seq   *atomic.Int64 // shared by reconnected clients, so request ids stay unique
	label string

	mu        sync.Mutex
	recording bool
	samples   []sample
	attempted int
	failed    int
}

func newClient(base string, ids bool, label string) *client {
	return &client{
		base:  base,
		ids:   ids,
		label: label,
		seq:   new(atomic.Int64),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reconnect returns a client for another daemon that continues c's
// request ids.
func (c *client) reconnect(base string) *client {
	n := newClient(base, c.ids, c.label)
	n.seq = c.seq
	return n
}

// record turns sample recording on or off; only recorded requests count
// towards attempted and failed.
func (c *client) record(on bool) {
	c.mu.Lock()
	c.recording = on
	c.mu.Unlock()
}

// do sends one request due at due (zero: now) and decodes a 2xx JSON
// response into out. The returned error covers transport failures and
// non-2xx statuses, which also count as failed.
func (c *client) do(kind, method, path string, body any, due time.Time, out any) (int, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	return c.doRaw(kind, method, path, data, due, out)
}

func (c *client) doRaw(kind, method, path string, data []byte, due time.Time, out any) (int, error) {
	var rd io.Reader
	if data != nil {
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	s := sample{Kind: kind, ReqBytes: len(data)}
	if c.ids {
		s.ReqID = c.label + strconv.FormatInt(c.seq.Add(1), 10)
		req.Header.Set(requestIDHeader, s.ReqID)
	}
	s.Sent = time.Now()
	if due.IsZero() {
		due = s.Sent
	}
	s.Due = due
	resp, err := c.hc.Do(req)
	var respBody []byte
	if err == nil {
		respBody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.Status = resp.StatusCode
	}
	s.Done = time.Now()
	s.RespBytes = len(respBody)
	if err == nil && (s.Status < 200 || s.Status > 299) {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, path, s.Status, respBody)
	}
	if err == nil && out != nil {
		if derr := json.Unmarshal(respBody, out); derr != nil {
			err = fmt.Errorf("%s %s: decoding response: %w", method, path, derr)
		}
	}
	c.mu.Lock()
	if c.recording {
		c.samples = append(c.samples, s)
		c.attempted++
		if err != nil {
			c.failed++
		}
	}
	c.mu.Unlock()
	return s.Status, err
}

// getBytes fetches a path's raw body (unrecorded).
func (c *client) getBytes(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// collect takes the recorded samples and counters, resetting them.
func (c *client) collect() ([]sample, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, a, f := c.samples, c.attempted, c.failed
	c.samples, c.attempted, c.failed = nil, 0, 0
	sort.Slice(s, func(i, j int) bool { return s[i].Sent.Before(s[j].Sent) })
	return s, a, f
}
