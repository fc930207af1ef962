package liveplat

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"mfc/internal/core"
)

func newTestGoClient(t *testing.T, target string) *goClient {
	t.Helper()
	base, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	return newGoClient("tc0", base, NewWallClock())
}

func TestGoClientTimeoutRecordsERR(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()
	c := newTestGoClient(t, slow.URL)
	s := c.doRequest(core.Request{Method: "GET", URL: "/"}, 150*time.Millisecond)
	if s.Err != "ERR" {
		t.Errorf("Err = %q, want ERR (the paper's timeout marker)", s.Err)
	}
	if s.Resp != 150*time.Millisecond {
		t.Errorf("Resp = %v, want the timeout value", s.Resp)
	}
}

func TestGoClientRecordsStatusAndBytes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 1234))
	}))
	defer srv.Close()
	c := newTestGoClient(t, srv.URL)
	s := c.doRequest(core.Request{Method: "GET", URL: "/x"}, 5*time.Second)
	if s.Status != 200 || s.Bytes != 1234 || s.Err != "" {
		t.Errorf("sample = %+v", s)
	}
	if s.Resp <= 0 {
		t.Error("no response time recorded")
	}
}

// The client keeps the base time it measured, and its samples carry it.
func TestGoClientMeasureTargetBaselines(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newTestGoClient(t, srv.URL)
	rq := core.Request{Method: "GET", URL: "/a"}
	rtt, err := c.MeasureTarget(rq)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Error("no RTT estimate")
	}
	if s := c.doRequest(rq, 5*time.Second); s.Base <= 0 {
		t.Errorf("sample = %+v, want the measured base time", s)
	}
}

func TestGoClientFireAndCollect(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newTestGoClient(t, srv.URL)
	if _, err := c.MeasureTarget(core.Request{Method: "GET", URL: "/"}); err != nil {
		t.Fatal(err)
	}
	now := c.clock.Now()
	c.Fire(3, now+100*time.Millisecond, []core.Request{
		{Method: "GET", URL: "/"}, {Method: "GET", URL: "/"},
	}, 2*time.Second)
	time.Sleep(600 * time.Millisecond)
	samples, ok := c.Collect(3)
	if !ok || len(samples) != 2 {
		t.Fatalf("samples = %v, %v", samples, ok)
	}
	for _, s := range samples {
		if s.Status != 200 {
			t.Errorf("sample = %+v", s)
		}
	}
	// An un-fired epoch collects empty but ok.
	if ss, ok := c.Collect(99); !ok || len(ss) != 0 {
		t.Errorf("epoch 99 = %v, %v", ss, ok)
	}
}

func TestInProcessPlatformValidation(t *testing.T) {
	if _, err := NewInProcessPlatform("not a url://", 3); err == nil {
		t.Error("bad URL accepted")
	}
	if _, err := NewInProcessPlatform("/relative", 3); err == nil {
		t.Error("relative URL accepted")
	}
	p, err := NewInProcessPlatform("http://example.test/", 5)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := p.ActiveClients()
	if err != nil || len(clients) != 5 {
		t.Fatalf("clients = %d, %v", len(clients), err)
	}
	ids := map[string]bool{}
	for _, c := range clients {
		id := c.(*goClient).id
		if ids[id] {
			t.Fatal("duplicate client ID")
		}
		ids[id] = true
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	c.Sleep(10 * time.Millisecond)
	b := c.Now()
	if b < a+9*time.Millisecond {
		t.Errorf("clock advanced %v over a 10ms sleep", b-a)
	}
	abs := c.Absolute(time.Hour)
	if time.Until(abs) < 59*time.Minute {
		t.Error("Absolute conversion wrong")
	}
}
