package mfc

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"mfc/internal/content"
	"mfc/internal/labtarget"
	"mfc/internal/liveplat"
)

// LiveTarget profiles a real, already-running HTTP server. Two crowd
// deployments are supported, mirroring the paper's:
//
//   - In-process (Listen empty): Clients goroutines in this process, each
//     with its own net/http transport — real requests, no wide-area
//     diversity. Right for servers you operate, over a LAN or loopback.
//   - Distributed (Listen set): remote mfc-client agents driven over the
//     paper's UDP control protocol (internal/wire) register with this
//     process; the experiment starts once MinAgents have arrived.
//
// Only profile servers you operate or have permission to test.
type LiveTarget struct {
	// URL is the absolute URL of the server to profile (required). Its
	// path component is the profiling crawl's entry page (default "/").
	URL string

	// Clients is the in-process goroutine crowd size (default 50). Used
	// when Listen is empty.
	Clients int

	// Listen, when set, is the UDP address to accept remote agent
	// registrations on — the distributed deployment.
	Listen string
	// MinAgents is the registration quorum (default 50, the paper's
	// MinClients rule); the run aborts if fewer register in RegisterWait
	// (default 60s).
	MinAgents    int
	RegisterWait time.Duration

	// CrawlMax bounds the profiling crawl (default 200 objects).
	CrawlMax int

	// Logf receives platform-level progress (agent registrations). The
	// experiment itself reports through the typed event stream.
	Logf func(string, ...any)
}

// crawlTimeout bounds a real server's profiling crawl: a server that
// drips bytes must not hang the profiling stage forever.
const crawlTimeout = 5 * time.Minute

// httpBinding binds the real HTTP server at target, crawled from base
// (crawlMax objects, default 200) and run inline; lab is nil for a live
// server. The caller sets the platform and any close hook.
func httpBinding(target, base string, crawlMax int, lab *labtarget.Server) (*binding, error) {
	fetcher, err := liveplat.NewHTTPFetcher(target)
	if err != nil {
		return nil, err
	}
	if crawlMax <= 0 {
		crawlMax = 200
	}
	return &binding{
		fetcher:      fetcher,
		host:         target,
		base:         base,
		crawl:        content.CrawlConfig{MaxObjects: crawlMax},
		crawlTimeout: crawlTimeout,
		execute:      func(body func()) { body() },
		finish: func(r *Session) {
			r.URL = target
			r.Lab = lab
		},
		close: func() {},
	}, nil
}

// open implements Target.
func (t LiveTarget) open(ctx context.Context, cfg Config, _ *runOptions) (*binding, error) {
	if t.URL == "" {
		return nil, fmt.Errorf("mfc: LiveTarget.URL is required")
	}
	parsed, err := url.Parse(t.URL)
	if err != nil {
		return nil, fmt.Errorf("mfc: parsing LiveTarget.URL: %w", err)
	}
	base := parsed.Path
	if base == "" {
		base = "/"
	}
	s, err := httpBinding(t.URL, base, t.CrawlMax, nil)
	if err != nil {
		return nil, err
	}

	if t.Listen == "" {
		clients := t.Clients
		if clients <= 0 {
			clients = 50
		}
		plat, err := liveplat.NewInProcessPlatform(t.URL, clients)
		if err != nil {
			return nil, err
		}
		s.platform = plat
		return s, nil
	}

	// Distributed deployment: wait for the agent quorum before profiling.
	plat, err := liveplat.NewUDPPlatform(t.Listen, t.URL, t.Logf)
	if err != nil {
		return nil, err
	}
	if t.Logf != nil {
		// Report the bound address: with a ":0" listen spec this is the
		// only place the actual registration port is known.
		t.Logf("listening for agent registrations on %s", plat.Addr())
	}
	minAgents := t.MinAgents
	if minAgents <= 0 {
		minAgents = 50
	}
	wait := t.RegisterWait
	if wait <= 0 {
		wait = 60 * time.Second
	}
	if got := plat.WaitForAgents(ctx, minAgents, time.Now().Add(wait)); got < minAgents {
		plat.Close()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mfc: canceled waiting for agents (%d of %d registered): %w", got, minAgents, err)
		}
		return nil, fmt.Errorf("mfc: only %d agents registered (need %d) within %v", got, minAgents, wait)
	}
	s.platform = plat
	s.close = func() { plat.Close() }
	return s, nil
}
