package mfc

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"mfc/internal/labtarget"
	"mfc/internal/liveplat"
)

// LabTarget is the §3 lab setting as a Target: a real instrumented HTTP
// server (internal/labtarget) started in this process and hosting Site,
// profiled over loopback by an in-process goroutine crowd. Wall-clock
// time; genuine net/http requests; the instrumented server's access log
// and counters are exposed on Session.Lab.
type LabTarget struct {
	// Site is the hosted content (required).
	Site *Site
	// Model is an optional synthetic response-time model driven by the
	// live pending-request count (§3.1's validation functions).
	Model SyntheticModel
	// Listen is the TCP address to bind (default "127.0.0.1:0").
	Listen string
	// Clients is the in-process goroutine crowd size (default 40).
	Clients int
}

// open implements Target.
func (t LabTarget) open(_ context.Context, cfg Config, _ *runOptions) (*binding, error) {
	if t.Site == nil {
		return nil, fmt.Errorf("mfc: LabTarget.Site is required")
	}
	listen := t.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	srv := labtarget.New(t.Site, t.Model)
	srv.EnableAccessLog()
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("mfc: starting lab target: %w", err)
	}
	go http.Serve(ln, srv)
	url := "http://" + ln.Addr().String()

	clients := t.Clients
	if clients <= 0 {
		clients = 40
	}
	plat, err := liveplat.NewInProcessPlatform(url, clients)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s, err := httpBinding(url, t.Site.Base, 0, srv)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.platform = plat
	s.close = func() { ln.Close() }
	return s, nil
}
