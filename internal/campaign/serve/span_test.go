package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/clock/clocktest"
	"mfc/internal/obs"
)

// POST /api/spans must feed both consumers — the fleet aggregator behind
// /fleet.json and the per-owner spill file `mfc-campaign trace` reads.
func TestSpanIngestAndTraceHeader(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	batch := SpanBatch{Owner: "w-remote", Spans: []obs.Span{
		{ID: 1, Name: "work", Cat: "work", Shard: -1, Start: 10, End: 0}, // Worker deliberately empty
		{ID: 2, Name: "shard 0", Cat: "shard", Worker: "w-remote", Shard: 0,
			Start: 10, End: 5010, Attrs: []obs.SpanAttr{obs.ABool("sealed", true)}},
	}}
	body, _ := json.Marshal(batch)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/spans", bytes.NewReader(body)))
	if rr.Code != http.StatusNoContent {
		t.Fatalf("POST /api/spans = %d, want 204: %s", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/fleet.json", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /fleet.json = %d", rr.Code)
	}
	var doc campaign.FleetDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ingested != 2 || len(doc.Workers) != 1 || doc.Workers[0].Name != "w-remote" {
		t.Errorf("fleet doc after ingest = %+v, want 2 spans from w-remote", doc)
	}

	spans, err := campaign.ReadSpans(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("server spilled %d spans, want 2", len(spans))
	}
	for i := range spans {
		if spans[i].Worker != "w-remote" {
			t.Errorf("spilled span %d carries worker %q, want batch owner filled in", spans[i].ID, spans[i].Worker)
		}
	}
}

// Reaping a silent grant must be visible on /metrics: the reaped-grants
// counter ticks and the per-worker heartbeat-age gauge reports how long
// each owner has been quiet.
func TestReapMetrics(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	clk := clocktest.New(time.Now())
	srv, err := New(dir, Options{TTL: time.Minute, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.grantFor("quiet"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	// Any grant request reaps first; "next" also pins its own gauge at 0s.
	if _, err := srv.grantFor("next"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := srv.reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "mfc_serve_reaped_grants_total 1") {
		t.Errorf("scrape missing reaped counter:\n%s", text)
	}
	if !strings.Contains(text, `mfc_serve_worker_heartbeat_age_seconds{owner="quiet"} 120`) {
		t.Errorf("scrape missing quiet worker's heartbeat age:\n%s", text)
	}
	if !strings.Contains(text, `mfc_serve_worker_heartbeat_age_seconds{owner="next"} 0`) {
		t.Errorf("scrape missing fresh worker's heartbeat age:\n%s", text)
	}
}

// FuzzSpanIngest throws arbitrary bodies at POST /api/spans through the
// real handler: whatever arrives, the server must answer without
// panicking and the fleet aggregator must stay inside its hard caps.
func FuzzSpanIngest(f *testing.F) {
	dir := f.TempDir()
	servePlan(f, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	f.Add([]byte(`{"owner":"w","spans":[{"id":1,"name":"shard 0","cat":"shard","worker":"w","shard":0,"start_us":1,"end_us":2,"attrs":[{"k":"sealed","v":"true"}]}]}`))
	f.Add([]byte(`{"owner":"","spans":[{"id":0,"name":"claim","cat":"claim","shard":-7,"start_us":-1,"end_us":-2}]}`))
	f.Add([]byte(`{"spans":[{"cat":"idle","shard":999999999}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/spans", bytes.NewReader(body)))
		if rr.Code != http.StatusNoContent && rr.Code != http.StatusBadRequest {
			t.Fatalf("POST /api/spans = %d, want 204 or 400", rr.Code)
		}
		// The fleet caps, as /fleet.json shows them.
		doc := srv.fleet.Snapshot()
		if len(doc.Workers) > 256 || len(doc.Active) > 4096 {
			t.Fatalf("fleet holds %d workers and %d active shards; caps 256 and 4096", len(doc.Workers), len(doc.Active))
		}
		for _, w := range doc.Workers {
			if len(w.Name) > 128 || len(w.Timeline) > 64 {
				t.Fatalf("fleet worker has a %d-byte name and %d timeline segments; caps 128 and 64", len(w.Name), len(w.Timeline))
			}
		}
		srv.mu.Lock()
		tracked := len(srv.lastSeen)
		srv.mu.Unlock()
		if tracked > maxTrackedOwners {
			t.Fatalf("tracking %d owners, bound is %d", tracked, maxTrackedOwners)
		}
	})
}

// A client inventing owner names cannot grow the per-owner maps past
// maxTrackedOwners; spans from the owners past the bound still reach the
// fleet aggregator.
func TestTrackedOwnersBounded(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	const owners = maxTrackedOwners + 40
	for i := 0; i < owners; i++ {
		// One fleet worker under many batch owners: the fleet view has its
		// own, lower cap on worker names.
		owner := fmt.Sprintf("invented-%d", i)
		batch := SpanBatch{Owner: owner, Spans: []obs.Span{
			{ID: uint64(i + 1), Name: "idle", Cat: "idle", Worker: "w", Shard: -1, Start: 1, End: 2}}}
		if rr := call(t, h, "/api/spans", batch); rr.Code != http.StatusNoContent {
			t.Fatalf("POST /api/spans from %s = %d", owner, rr.Code)
		}
	}
	srv.mu.Lock()
	tracked, spills := len(srv.lastSeen), len(srv.spanFiles)
	srv.mu.Unlock()
	if tracked != maxTrackedOwners || spills != maxTrackedOwners {
		t.Errorf("tracking %d owners and %d spill files, want exactly the bound %d", tracked, spills, maxTrackedOwners)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/fleet.json", nil))
	var doc campaign.FleetDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ingested != owners {
		t.Errorf("fleet ingested %d spans, want all %d (untracked owners included)", doc.Ingested, owners)
	}
}
