package campaign

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mfc/internal/obs"
)

// dashFixture runs the small test campaign to completion and returns a
// Dash over its store with the scan debounce disabled.
func dashFixture(t *testing.T) (*Dash, *Tracker) {
	t.Helper()
	dir := t.TempDir()
	testPlan(t, dir)
	reg := obs.NewRegistry()
	tr := NewTracker(reg)
	runToCompletion(t, dir, Options{Workers: 2, OnStart: tr.Start, OnEvent: tr.OnEvent})
	d := NewDash(dir, reg, tr)
	d.store.Debounce = 0
	return d, tr
}

func TestDashEndpoints(t *testing.T) {
	d, tr := dashFixture(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	// /metrics: session counters and store-wide completion agree with the
	// finished campaign (12 jobs in the fixture plan).
	metrics := get("/metrics")
	for _, want := range []string{
		"mfc_campaign_jobs_total 12",
		"mfc_campaign_jobs_done 12",
		"mfc_campaign_store_jobs_done 12",
		"mfc_campaign_store_jobs_total 12",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /progress: same numbers through the JSON surface.
	var prog progressDoc
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if prog.StoreDone != 12 || prog.StoreTotal != 12 || prog.Done != 12 {
		t.Errorf("/progress = %+v", prog)
	}
	if prog.DoneSession != tr.Snapshot().DoneSession {
		t.Errorf("/progress session done %d != tracker %d", prog.DoneSession, tr.Snapshot().DoneSession)
	}

	// /dashboard.json: both fixture bands present, all sites measured.
	var dash dashboardDoc
	if err := json.Unmarshal([]byte(get("/dashboard.json")), &dash); err != nil {
		t.Fatalf("/dashboard.json: %v", err)
	}
	if dash.Done != 12 || dash.Total != 12 || len(dash.Bands) != 2 {
		t.Errorf("/dashboard.json = done=%d total=%d bands=%+v", dash.Done, dash.Total, dash.Bands)
	}
	var verdicts int64
	for _, s := range dash.Scenarios {
		for _, n := range s.Verdicts {
			verdicts += n
		}
	}
	if verdicts != 12 {
		t.Errorf("scenario verdict tally = %d, want 12", verdicts)
	}

	// The HTML dashboard and pprof index serve.
	if !strings.Contains(get("/"), "mfc campaign") {
		t.Error("/ is not the dashboard page")
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Error("/debug/pprof/ did not serve")
	}
}

func TestDashQuit(t *testing.T) {
	d, _ := dashFixture(t)
	h := d.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/quit", nil))
	if rec.Code != 405 {
		t.Errorf("GET /quit = %d, want 405", rec.Code)
	}
	select {
	case <-d.WaitQuit():
		t.Fatal("GET released the quit channel")
	default:
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/quit", nil))
	if rec.Code != 200 {
		t.Errorf("POST /quit = %d", rec.Code)
	}
	select {
	case <-d.WaitQuit():
	default:
		t.Fatal("quit channel not released")
	}
	// Second POST is idempotent.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/quit", nil))
	if rec.Code != 200 {
		t.Errorf("second POST /quit = %d", rec.Code)
	}
}

// ServeUntil must shut the listener down when the context is canceled —
// no leaked server goroutine, no accepting socket left behind.
func TestServeUntilShutsDownOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeUntil(ctx, ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
	}()

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("request while serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d while serving", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeUntil after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUntil did not return after context cancel")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
