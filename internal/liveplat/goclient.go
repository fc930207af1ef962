package liveplat

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"mfc/internal/core"
)

// goClient is one in-process MFC client: its own transport (own connection
// pool, keep-alives off so every request performs a fresh TCP handshake,
// which is what the synchronization model schedules around).
type goClient struct {
	id    string
	base  *url.URL
	clock *WallClock
	httpc *http.Client

	mu      sync.Mutex
	results map[int][]core.Sample
	baseRTT time.Duration
	bases   map[string]time.Duration
}

func newGoClient(id string, base *url.URL, clock *WallClock) *goClient {
	tr := &http.Transport{
		DisableKeepAlives: true,
		// A fresh connection per request, no shared pools across clients.
		MaxIdleConns:    1,
		DialContext:     (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		TLSClientConfig: nil,
	}
	return &goClient{
		id:      id,
		base:    base,
		clock:   clock,
		httpc:   &http.Client{Transport: tr},
		results: make(map[int][]core.Sample),
		bases:   make(map[string]time.Duration),
	}
}

// ID implements core.Client.
func (c *goClient) ID() string { return c.id }

// ControlRTT implements core.Client: in-process control costs microseconds.
func (c *goClient) ControlRTT() (time.Duration, error) {
	return 100 * time.Microsecond, nil
}

// EstimateRTT measures the TCP connect time to the target, the live
// equivalent of the ping in Figure 2's delay-computation step.
func (c *goClient) estimateRTT() (time.Duration, error) {
	host := c.base.Host
	if c.base.Port() == "" {
		if c.base.Scheme == "https" {
			host = net.JoinHostPort(c.base.Hostname(), "443")
		} else {
			host = net.JoinHostPort(c.base.Hostname(), "80")
		}
	}
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return 0, err
	}
	rtt := time.Since(t0)
	conn.Close()
	return rtt, nil
}

// MeasureTarget implements core.Client.
func (c *goClient) MeasureTarget(reqs []core.Request) (core.Baseline, error) {
	rtt, err := c.estimateRTT()
	if err != nil {
		return core.Baseline{}, err
	}
	bl := core.Baseline{TargetRTT: rtt, BaseTimes: make(map[string]time.Duration, len(reqs))}
	for _, rq := range reqs {
		s := c.doRequest(rq, 10*time.Second)
		if s.Err != "" {
			return core.Baseline{}, &requestError{url: rq.URL, msg: s.Err}
		}
		bl.BaseTimes[rq.URL] = s.Resp
	}
	c.mu.Lock()
	c.baseRTT = rtt
	for u, d := range bl.BaseTimes {
		c.bases[u] = d
	}
	c.mu.Unlock()
	return bl, nil
}

type requestError struct {
	url string
	msg string
}

func (e *requestError) Error() string {
	return "liveplat: request " + e.url + ": " + e.msg
}

// Fire implements core.Client: start the handshake 1.5·RTT before the
// intended arrival instant, so the first request byte lands at ≈arriveAt.
func (c *goClient) Fire(epoch int, arriveAt time.Duration, reqs []core.Request, timeout time.Duration) {
	c.mu.Lock()
	rtt := c.baseRTT
	c.mu.Unlock()
	fireAt := c.clock.Absolute(arriveAt - rtt*3/2)
	time.AfterFunc(time.Until(fireAt), func() { c.fire(epoch, reqs, timeout) })
}

// fire issues reqs in parallel now and records each sample under epoch
// for Collect; it returns once every request has completed.
func (c *goClient) fire(epoch int, reqs []core.Request, timeout time.Duration) {
	var wg sync.WaitGroup
	for _, rq := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.doRequest(rq, timeout)
			c.mu.Lock()
			c.results[epoch] = append(c.results[epoch], s)
			c.mu.Unlock()
		}()
	}
	wg.Wait()
}

// doRequest issues one HTTP request, fully reading the body, enforcing the
// client timeout exactly as Figure 2(b): on timeout, Err="ERR" and the
// response time is recorded as the timeout value.
func (c *goClient) doRequest(rq core.Request, timeout time.Duration) core.Sample {
	c.mu.Lock()
	base := c.bases[rq.URL]
	c.mu.Unlock()

	u := *c.base
	parsed, err := url.Parse(rq.URL)
	if err == nil {
		u = *c.base.ResolveReference(parsed)
	}
	s := core.Sample{Client: c.id, URL: rq.URL, Base: base}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, rq.Method, u.String(), nil)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	req.Header.Set("User-Agent", "mfc-profiler/1.0")

	t0 := time.Now()
	resp, err := c.httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			s.Err = "ERR" // killed at the timeout, per the paper
			s.Resp = timeout
			return s
		}
		s.Err = err.Error()
		s.Resp = time.Since(t0)
		return s
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.Resp = time.Since(t0)
	s.Status = resp.StatusCode
	s.Bytes = n
	if err != nil {
		if ctx.Err() != nil {
			s.Err = "ERR"
			s.Resp = timeout
			s.Status = 0
			return s
		}
		s.Err = err.Error()
	}
	return s
}

// Collect implements core.Client.
func (c *goClient) Collect(epoch int) ([]core.Sample, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results[epoch], true
}
