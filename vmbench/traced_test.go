package main

import (
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"vmalloc"
)

// TestTracedHostServesTheDaemonSurface boots the in-process traced host
// and checks that the wrapped store still serves the routes the handler
// enables only through optional store surfaces, that a request's store
// call is linked to its client span by request id, and that journal I/O is
// classified by file kind.
func TestTracedHostServesTheDaemonSurface(t *testing.T) {
	rec := &recorder{}
	h, err := openHost(t.TempDir(), spec{Name: "test", Shape: shapeBulk}, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	c := newClient(h.URL(), true, "t")
	defer c.close()

	for _, path := range []string{"/readyz", "/v1/shards", "/v1/replica/manifest", "/metrics"} {
		if code, err := c.do("read", "GET", path, nil, time.Time{}, nil); err != nil || code != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, code, err)
		}
	}
	c.record(true)
	svc := tinyService(rand.New(rand.NewSource(1)))
	if _, err := admitAll(c, "batch", []vmalloc.Service{svc}, 1, nil); err != nil {
		t.Fatal(err)
	}
	c.record(false)
	samples, attempted, failed := c.collect()
	if attempted != 1 || failed != 0 || len(samples) != 1 {
		t.Fatalf("recorded %d samples, %d attempted, %d failed", len(samples), attempted, failed)
	}
	var linked, segSync bool
	for _, s := range rec.snapshot() {
		if s.Name == "store.add" && s.ReqID == samples[0].ReqID && s.Parent == "client" {
			linked = true
			if s.Start.Before(samples[0].Sent) || s.End.After(samples[0].Done) {
				t.Errorf("store span %v..%v outside its client span %v..%v", s.Start, s.End, samples[0].Sent, samples[0].Done)
			}
		}
		if s.Name == "journal.segment.sync" {
			segSync = true
		}
		if strings.HasPrefix(s.Name, "journal.other") {
			t.Errorf("unclassified journal I/O: %s", s.Name)
		}
	}
	if !linked {
		t.Errorf("no store.add span carries request id %q", samples[0].ReqID)
	}
	if !segSync {
		t.Error("the admission's fsync was not recorded as a segment sync")
	}
	if _, err := h.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if h.replayed < 1 {
		t.Errorf("recovery replayed %d records, want the admission", h.replayed)
	}
}
