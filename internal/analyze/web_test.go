package analyze

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWebSurface locks the live routes over the checked-in mini store:
// /analyze.json serves exactly the canonical Doc bytes (what the CLI and
// the golden test emit), /analyze the self-contained HTML view.
func TestWebSurface(t *testing.T) {
	store := filepath.Join("testdata", "ministore")
	wb := NewWeb([]string{store}, time.Hour)

	rr := httptest.NewRecorder()
	wb.ServeHTTP(rr, httptest.NewRequest("GET", "/analyze.json", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/analyze.json: %d %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/analyze.json content type %q", ct)
	}
	if want := docJSON(t, store); !bytes.Equal(rr.Body.Bytes(), want) {
		t.Errorf("/analyze.json is not the canonical document:\n%s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	wb.ServeHTTP(rr, httptest.NewRequest("GET", "/analyze", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "campaign analytics") {
		t.Errorf("/analyze: %d, body %.80s...", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	wb.ServeHTTP(rr, httptest.NewRequest("GET", "/analyze/else", nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rr.Code)
	}
}

// TestWebKeepsLastGoodSnapshot: a scan error after a successful scan must
// not blank the surface; before any success it must 503.
func TestWebKeepsLastGoodSnapshot(t *testing.T) {
	wb := NewWeb([]string{t.TempDir()}, 0) // no plan.json here
	rr := httptest.NewRecorder()
	wb.ServeHTTP(rr, httptest.NewRequest("GET", "/analyze.json", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("scan of empty dir: %d, want 503", rr.Code)
	}

	plan, err := os.ReadFile(filepath.Join("testdata", "ministore", "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	store := t.TempDir()
	if err := os.WriteFile(filepath.Join(store, "plan.json"), plan, 0o644); err != nil {
		t.Fatal(err)
	}
	wb = NewWeb([]string{store}, time.Nanosecond)
	good := httptest.NewRecorder()
	wb.ServeHTTP(good, httptest.NewRequest("GET", "/analyze.json", nil))
	if good.Code != http.StatusOK {
		t.Fatalf("first scan: %d", good.Code)
	}
	if err := os.Remove(filepath.Join(store, "plan.json")); err != nil { // store "disappears"; debounce long expired
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	wb.ServeHTTP(rr, httptest.NewRequest("GET", "/analyze.json", nil))
	if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), good.Body.Bytes()) {
		t.Errorf("lost the last good snapshot: %d", rr.Code)
	}
}

type fakeMounter map[string]http.Handler

func (m fakeMounter) Mount(pattern string, h http.Handler) { m[pattern] = h }

func TestMountOn(t *testing.T) {
	wb := NewWeb([]string{filepath.Join("testdata", "ministore")}, time.Hour)
	m := fakeMounter{}
	wb.MountOn(m)
	for _, pattern := range []string{"/analyze.json", "/analyze"} {
		if m[pattern] == nil {
			t.Errorf("MountOn did not mount %s", pattern)
		}
	}
}
