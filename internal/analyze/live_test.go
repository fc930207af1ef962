package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/clock/clocktest"
	"mfc/internal/obs"
)

// newLive builds a Live over dir with a fresh registry, tracker and fleet.
func newLive(dir string) (*Live, *campaign.Tracker) {
	reg := obs.NewRegistry()
	tr := campaign.NewTracker(reg)
	return NewLive(dir, reg, tr, campaign.NewFleet(0)), tr
}

// get serves one request and returns the recorder.
func get(l *Live, method, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	l.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
	return rr
}

// getOK serves one GET and fails the test on a non-200.
func getOK(t *testing.T, l *Live, path string) []byte {
	t.Helper()
	rr := get(l, "GET", path)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET %s = %d %s", path, rr.Code, rr.Body.String())
	}
	return rr.Body.Bytes()
}

// ministoreWith copies the checked-in mini store's plan and its first
// shards shard files (5, 5 and 2 jobs) into a fresh directory.
func ministoreWith(t *testing.T, shards int) string {
	t.Helper()
	dir := t.TempDir()
	copyMini(t, dir, "plan.json")
	for k := 0; k < shards; k++ {
		addMiniShard(t, dir, k)
	}
	return dir
}

func addMiniShard(t *testing.T, dir string, k int) {
	t.Helper()
	copyMini(t, dir, filepath.Join("shards", fmt.Sprintf("shard-%04d.jsonl", k)))
}

func copyMini(t *testing.T, dir, name string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "ministore", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// metricValue reads one unlabelled series off a /metrics scrape.
func metricValue(t *testing.T, scrape []byte, name string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindSubmatch(scrape)
	if m == nil {
		t.Fatalf("/metrics has no %s", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return int(v)
}

// TestLiveEndpoints serves a finished campaign: the session counters and
// the store-wide counts agree with it, and every route of the one surface
// answers.
func TestLiveEndpoints(t *testing.T) {
	dir := t.TempDir()
	miniPlan(t, dir)
	l, tr := newLive(dir)
	runAll(t, dir, campaign.Options{Workers: 2, OnStart: tr.Start, OnEvent: tr.OnEvent})

	// /metrics: session counters and store-wide completion agree with the
	// finished campaign (12 jobs in the mini plan).
	metrics := string(getOK(t, l, "/metrics"))
	for _, want := range []string{
		"mfc_campaign_jobs_total 12",
		"mfc_campaign_jobs_done 12",
		"mfc_campaign_store_jobs_done 12",
		"mfc_campaign_store_jobs_total 12",
		"mfc_campaign_straggler_shards 0",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /progress: same numbers through the JSON surface.
	var prog progressDoc
	if err := json.Unmarshal(getOK(t, l, "/progress"), &prog); err != nil {
		t.Fatalf("/progress: %v", err)
	}
	if prog.StoreDone != 12 || prog.StoreTotal != 12 || prog.Done != 12 || prog.ScanError != "" {
		t.Errorf("/progress = %+v", prog)
	}
	if prog.DoneSession != tr.Snapshot().DoneSession {
		t.Errorf("/progress session done %d != tracker %d", prog.DoneSession, tr.Snapshot().DoneSession)
	}

	var fleet campaign.FleetDoc
	if err := json.Unmarshal(getOK(t, l, "/fleet.json"), &fleet); err != nil || fleet.StragglerK != campaign.DefaultStragglerK {
		t.Errorf("/fleet.json = %+v, %v", fleet, err)
	}
	if !strings.Contains(string(getOK(t, l, "/")), "mfc campaign") {
		t.Error("/ is not the campaign page")
	}
	if !strings.Contains(string(getOK(t, l, "/debug/pprof/")), "pprof") {
		t.Error("/debug/pprof/ did not serve")
	}
	for _, gone := range []string{"/dashboard.json", "/fleet"} {
		if rr := get(l, "GET", gone); rr.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", gone, rr.Code)
		}
	}
}

// TestWebSurface serves the checked-in mini store: /analyze.json is exactly
// the canonical document (what the CLI and the golden test emit), its cells
// carry every verdict the page's band and scenario tables fold, and the
// analytics paths outside it are 404.
func TestWebSurface(t *testing.T) {
	store := filepath.Join("testdata", "ministore")
	l, _ := newLive(store)

	rr := get(l, "GET", "/analyze.json")
	if rr.Code != http.StatusOK {
		t.Fatalf("/analyze.json: %d %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/analyze.json content type %q", ct)
	}
	if want := docJSON(t, store); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("/analyze.json is not the canonical document:\n%s", rr.Body.String())
	}
	var doc Doc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var n, verdicts int64
	for _, c := range doc.Cells {
		n += int64(c.N)
		for _, v := range c.Verdicts {
			verdicts += v
		}
	}
	if n != 12 || verdicts != 12 || doc.Sites != 4 {
		t.Errorf("cells hold n=%d verdicts=%d sites_per_cell=%d, want 12, 12, 4", n, verdicts, doc.Sites)
	}
	for _, gone := range []string{"/analyze", "/analyze/else"} {
		if rr := get(l, "GET", gone); rr.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", gone, rr.Code)
		}
	}
}

// POST /quit releases WaitQuit once; GET does not, a second POST is fine.
func TestLiveQuit(t *testing.T) {
	l, _ := newLive(t.TempDir())
	if rr := get(l, "GET", "/quit"); rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /quit = %d, want 405", rr.Code)
	}
	select {
	case <-l.WaitQuit():
		t.Fatal("GET released the quit channel")
	default:
	}
	for i := 0; i < 2; i++ {
		if rr := get(l, "POST", "/quit"); rr.Code != http.StatusOK {
			t.Errorf("POST /quit #%d = %d", i+1, rr.Code)
		}
		select {
		case <-l.WaitQuit():
		default:
			t.Fatal("quit channel not released")
		}
	}
}

// TestLiveKeepsLastGoodScan: until a scan succeeds every request rescans
// and reports the error; a scan that fails after a good one keeps the
// good one, and the window holds after either.
func TestLiveKeepsLastGoodScan(t *testing.T) {
	dir := t.TempDir() // no plan.json yet
	l, _ := newLive(dir)
	clk := clocktest.New(time.Unix(0, 0))
	l.clk = clk
	if rr := get(l, "GET", "/analyze.json"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("scan of empty dir: %d, want 503", rr.Code)
	}

	// A failed scan is not served for a window: the next request rescans.
	copyMini(t, dir, "plan.json")
	good := getOK(t, l, "/analyze.json")

	// The store "disappears": inside the window nothing rescans, and the
	// failing rescan after it keeps serving the good document.
	if err := os.Remove(filepath.Join(dir, "plan.json")); err != nil {
		t.Fatal(err)
	}
	for _, step := range []time.Duration{minScanWindow - time.Nanosecond, time.Nanosecond, minScanWindow} {
		clk.Advance(step)
		if got := getOK(t, l, "/analyze.json"); !bytes.Equal(got, good) {
			t.Fatalf("after %v: lost the last good scan", step)
		}
		var prog progressDoc
		if err := json.Unmarshal(getOK(t, l, "/progress"), &prog); err != nil || prog.ScanError != "" || prog.StoreTotal != 12 {
			t.Fatalf("after %v: /progress = %+v, %v", step, prog, err)
		}
	}
}

// NewLive over a directory that does not exist builds without touching
// it; the first request reports the scan error, and a store that appears
// later is picked up by the next request.
func TestLiveMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	l, _ := newLive(dir)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("NewLive touched %s: %v", dir, err)
	}
	var prog progressDoc
	if err := json.Unmarshal(getOK(t, l, "/progress"), &prog); err != nil || prog.ScanError == "" || prog.StoreTotal != 0 {
		t.Errorf("first /progress = %+v, %v; want a scan_error", prog, err)
	}
	if rr := get(l, "GET", "/analyze.json"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("/analyze.json = %d, want 503", rr.Code)
	}
	copyMini(t, dir, "plan.json")
	prog = progressDoc{}
	if err := json.Unmarshal(getOK(t, l, "/progress"), &prog); err != nil || prog.ScanError != "" || prog.StoreTotal != 12 {
		t.Errorf("/progress once the store exists = %+v, %v", prog, err)
	}
}

// slowClock is a fake clock that moves step forward on every reading, so
// a scan — read before and after — appears to cost step.
type slowClock struct {
	*clocktest.Clock
	step time.Duration
}

func (c *slowClock) Now() time.Time {
	now := c.Clock.Now()
	c.Clock.Advance(c.step)
	return now
}

// TestLiveOneScan is the drift test: /progress, /analyze.json and
// /metrics report the same done and total counts because they read the
// same scan; records appended inside the scan's window show on all three
// together once it passes; and the window is max(2 s, 4× the scan's cost).
func TestLiveOneScan(t *testing.T) {
	dir := ministoreWith(t, 1)
	l, _ := newLive(dir)
	clk := &slowClock{Clock: clocktest.New(time.Unix(0, 0))}
	l.clk = clk
	agree := func(want int) {
		t.Helper()
		var prog progressDoc
		if err := json.Unmarshal(getOK(t, l, "/progress"), &prog); err != nil {
			t.Fatal(err)
		}
		var doc Doc
		if err := json.Unmarshal(getOK(t, l, "/analyze.json"), &doc); err != nil {
			t.Fatal(err)
		}
		scrape := getOK(t, l, "/metrics")
		done := []int{int(prog.StoreDone), doc.DoneJobs, metricValue(t, scrape, "mfc_campaign_store_jobs_done")}
		total := []int{int(prog.StoreTotal), doc.TotalJobs, metricValue(t, scrape, "mfc_campaign_store_jobs_total")}
		for i, src := range []string{"/progress", "/analyze.json", "/metrics"} {
			if done[i] != want || total[i] != 12 {
				t.Errorf("%s reports %d/%d done, want %d/12", src, done[i], total[i], want)
			}
		}
	}
	agree(5)
	addMiniShard(t, dir, 1)
	clk.Advance(minScanWindow - time.Nanosecond)
	agree(5) // inside the window: no rescan
	clk.Advance(time.Nanosecond)
	agree(10)

	// A scan that costs 1 s is served for 4 s, past the 2 s floor.
	clk.Advance(minScanWindow)
	clk.step = time.Second
	getOK(t, l, "/progress") // rescans at T; the clock reads T+2s after it
	clk.step = 0
	addMiniShard(t, dir, 2)
	agree(10)
	clk.Advance(2*time.Second - time.Nanosecond)
	agree(10)
	clk.Advance(time.Nanosecond)
	agree(12)
}

// Several goroutines read every store-backed route while the clock
// crosses window boundaries: the race detector covers the scan cache, and
// every response is whole.
func TestLiveConcurrentRequests(t *testing.T) {
	l, _ := newLive(ministoreWith(t, 3))
	clk := clocktest.New(time.Unix(0, 0))
	l.clk = clk
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		path := []string{"/progress", "/analyze.json", "/metrics"}[g%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if rr := get(l, "GET", path); rr.Code != http.StatusOK || !bytes.Contains(rr.Body.Bytes(), []byte("12")) {
					t.Errorf("GET %s = %d %.80s", path, rr.Code, rr.Body.String())
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		clk.Advance(minScanWindow / 2)
	}
	wg.Wait()
}
