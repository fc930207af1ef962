// Package labtarget implements the instrumented validation web server of
// §3.1 as a real net/http handler: it hosts a content.Site (serving bodies
// of the right sizes), optionally applies a synthetic response-time model
// driven by the live pending-request count, logs request arrivals with
// microsecond timestamps, and exposes counters — everything the paper's
// Anti-Web-based lab target provided.
package labtarget

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mfc/internal/content"
	"mfc/internal/websim"
)

// Server is the instrumented target. Use New and mount it as an
// http.Handler (http.ListenAndServe or httptest.NewServer).
type Server struct {
	site  *content.Site
	model websim.SyntheticModel
	// QueryDelay is a fixed handling time for dynamic URLs, emulating a
	// back-end query independent of the synthetic model.
	QueryDelay time.Duration

	pending int64 // current in-flight requests

	mu       sync.Mutex
	arrivals []Arrival
	logOn    bool

	served  uint64
	body    []byte // shared filler page content
	started time.Time
}

// Arrival is one access-log record.
type Arrival struct {
	At     time.Duration `json:"at_ns"`
	URL    string        `json:"url"`
	Method string        `json:"method"`
}

// New builds a target hosting site. model may be nil (no synthetic delay).
func New(site *content.Site, model websim.SyntheticModel) *Server {
	body := make([]byte, 64<<10)
	for i := range body {
		body[i] = 'a' + byte(i%26)
	}
	return &Server{site: site, model: model, body: body, started: time.Now()}
}

// EnableAccessLog starts recording arrivals (Figure 3's measurement).
func (s *Server) EnableAccessLog() {
	s.mu.Lock()
	s.logOn = true
	s.mu.Unlock()
}

// AccessLog returns a copy of the recorded arrivals.
func (s *Server) AccessLog() []Arrival {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Arrival, len(s.arrivals))
	copy(out, s.arrivals)
	return out
}

// Served returns the number of completed requests.
func (s *Server) Served() uint64 { return atomic.LoadUint64(&s.served) }

// Pending returns the in-flight request count.
func (s *Server) Pending() int { return int(atomic.LoadInt64(&s.pending)) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := time.Since(s.started)
	s.mu.Lock()
	if s.logOn {
		s.arrivals = append(s.arrivals, Arrival{At: now, URL: r.URL.String(), Method: r.Method})
	}
	s.mu.Unlock()

	switch r.URL.Path {
	case "/metrics":
		s.metrics(w)
		return
	case "/reset-log":
		s.mu.Lock()
		s.arrivals = s.arrivals[:0]
		s.mu.Unlock()
		fmt.Fprintln(w, "ok")
		return
	case "/access-log":
		s.mu.Lock()
		b, _ := json.Marshal(s.arrivals)
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}

	key := r.URL.Path
	if r.URL.RawQuery != "" {
		key += "?" + r.URL.RawQuery
	}
	if key == "/" {
		key = s.site.Base // "/" serves the base page, as real servers do
	}
	obj, ok := s.site.Lookup(key)
	if !ok {
		http.NotFound(w, r)
		return
	}

	pend := atomic.AddInt64(&s.pending, 1)
	defer atomic.AddInt64(&s.pending, -1)

	if obj.Dynamic && s.QueryDelay > 0 {
		time.Sleep(s.QueryDelay)
	}
	if s.model != nil {
		// Small gathering window so a synchronized crowd is assembled
		// before the pending count is sampled (see websim's
		// syntheticSettle for the same rationale in simulation).
		time.Sleep(20 * time.Millisecond)
		pend = atomic.LoadInt64(&s.pending)
		if d := s.model.Delay(int(pend)); d > 0 {
			time.Sleep(d)
		}
	}
	_ = pend

	w.Header().Set("Content-Length", strconv.FormatInt(obj.Size, 10))
	w.Header().Set("Content-Type", contentType(obj))
	if r.Method == http.MethodHead {
		atomic.AddUint64(&s.served, 1)
		return
	}
	s.writeBody(w, obj)
	atomic.AddUint64(&s.served, 1)
}

// writeBody streams obj.Size bytes. Pages embed their links as HTML
// anchors so the profiling crawl works against this server.
func (s *Server) writeBody(w http.ResponseWriter, obj content.Object) {
	remaining := obj.Size
	if obj.Kind == content.KindText && len(obj.Links) > 0 {
		var hdr []byte
		hdr = append(hdr, "<html><body>\n"...)
		for _, l := range obj.Links {
			hdr = append(hdr, fmt.Sprintf("<a href=%q>x</a>\n", l)...)
		}
		if int64(len(hdr)) > remaining {
			hdr = hdr[:remaining]
		}
		w.Write(hdr)
		remaining -= int64(len(hdr))
	}
	for remaining > 0 {
		n := int64(len(s.body))
		if n > remaining {
			n = remaining
		}
		if _, err := w.Write(s.body[:n]); err != nil {
			return
		}
		remaining -= n
	}
}

func contentType(obj content.Object) string {
	switch obj.Kind {
	case content.KindText:
		return "text/html"
	case content.KindImage:
		return "image/jpeg"
	case content.KindQuery:
		return "text/html"
	default:
		return "application/octet-stream"
	}
}

func (s *Server) metrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"served":  s.Served(),
		"pending": s.Pending(),
		"uptime":  time.Since(s.started).Seconds(),
		"objects": s.site.Len(),
	})
}
