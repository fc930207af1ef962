package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/dist/lease"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock"
	"mfc/internal/obs"
)

// WorkRemote runs one networked worker against a control plane started
// with `mfc-campaign serve`: it fetches the plan over HTTP and runs the
// shared engine (campaign.Work) over grants instead of file leases — no
// filesystem is shared with the plan. The grant's fence token (the
// server's per-shard grant counter) travels with every heartbeat and upload;
// a 410 from the server means the shard was re-granted to a successor and
// this worker abandons it, exactly like a filesystem worker losing its
// lease. WorkRemote returns when the server reports the campaign
// complete, ctx is canceled, or HaltAfter trips.
func WorkRemote(ctx context.Context, addr string, opts WorkOptions) (*WorkStatus, error) {
	if opts.Owner == "" {
		opts.Owner = lease.DefaultOwner()
	}
	opts.Clock = clock.Or(opts.Clock)
	rc := &remoteClient{
		base: normalizeAddr(addr),
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	// Concurrent requests (heartbeats, uploads, span flushes) make the
	// transport dial-race spare connections; one that loses the race is
	// parked unused, and the server counts it as StateNew — which blocks a
	// graceful Shutdown for its 5s new-conn grace. Drop them on the way out.
	defer rc.hc.CloseIdleConnections()

	var plan campaign.Plan
	if err := rc.get(ctx, "/api/plan", &plan); err != nil {
		return nil, fmt.Errorf("dist: joining %s: %w", addr, err)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("dist: control plane sent an invalid plan: %w", err)
	}

	// Wall-clock tracing, networked flavor: the trace id is derived from
	// the plan, as WorkDir's is, and span batches ship to POST /api/spans
	// instead of a spill file. Each shipment uses its own short deadline
	// off context.Background() so the final flush — after SIGINT has
	// killed ctx — still reaches the server.
	var spill *campaign.SpanSpiller
	if opts.Spans != nil {
		opts.Spans.SetTrace(campaign.PlanTraceID(&plan))
		spill = campaign.NewSpanSpiller(opts.Clock, opts.Spans, func(spans []obs.Span) {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			rc.post(sctx, "/api/spans", serve.SpanBatch{Owner: opts.Owner, Spans: spans}, nil)
		})
		defer spill.Close()
	}
	return campaign.Work(ctx, &plan, &grantSource{rc: rc, clk: opts.Clock, owner: opts.Owner}, spill, opts)
}

// normalizeAddr turns "host:port" into a base URL.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// remoteClient is a minimal JSON-over-HTTP client for the serve protocol.
type remoteClient struct {
	base string
	hc   *http.Client
}

func (rc *remoteClient) get(ctx context.Context, path string, out any) error {
	return rc.do(ctx, http.MethodGet, path, nil, out)
}

// post sends body as JSON. A 410 — the fence token is stale and the bearer
// must abandon its shard — maps to campaign.ErrFenced; other non-2xx
// statuses are errors. out may be nil for 204 endpoints.
func (rc *remoteClient) post(ctx context.Context, path string, body, out any) error {
	return rc.do(ctx, http.MethodPost, path, body, out)
}

func (rc *remoteClient) do(ctx context.Context, method, path string, body, out any) error {
	var payload io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, rc.base+path, payload)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rc.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusGone:
		return campaign.ErrFenced
	case resp.StatusCode >= 300:
		return fmt.Errorf("dist: %s %s: %s", method, path, readError(resp))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func readError(resp *http.Response) string {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
}

// grantSource is the campaign.ShardSource over the serve protocol: a claim
// is a grant, and the server — which owns the store and the grant table —
// decides wait and complete.
type grantSource struct {
	rc    *remoteClient
	clk   clock.Clock // paces Persist's retries
	owner string
}

// Survey reads the server's totals. Band-level pending is unknown to a
// remote worker (it never scans the store); the totals still anchor
// progress and ETA.
func (s *grantSource) Survey(ctx context.Context) (campaign.StartInfo, error) {
	var status serve.StatusDoc
	if err := s.rc.get(ctx, "/api/status", &status); err != nil {
		return campaign.StartInfo{}, err
	}
	return campaign.StartInfo{Total: status.Total, AlreadyDone: status.Done}, nil
}

func (s *grantSource) Claim(ctx context.Context) (*campaign.Claim, error) {
	var g serve.GrantDoc
	if err := s.rc.post(ctx, "/api/grant", serve.GrantRequest{Owner: s.owner}, &g); err != nil {
		return nil, err
	}
	switch {
	case g.Complete:
		return nil, campaign.ErrComplete
	case g.Wait:
		return nil, campaign.ErrWait
	}
	ttl := g.TTL()
	if ttl <= 0 {
		ttl = lease.DefaultTTL
	}
	return &campaign.Claim{Shard: g.Shard, Takeover: g.Gen > 1, TTL: ttl, Jobs: g.Jobs,
		Hold: &grantHold{src: s, ref: serve.ShardRef{Owner: s.owner, Shard: g.Shard, Gen: g.Gen}}}, nil
}

// grantHold is one grant's fence token; every request bearing it gets a
// 410 (campaign.ErrFenced) once the shard has been re-granted.
type grantHold struct {
	src *grantSource
	ref serve.ShardRef
}

func (h *grantHold) Heartbeat(ctx context.Context) error {
	return h.src.rc.post(ctx, "/api/heartbeat", h.ref, nil)
}

func (h *grantHold) Seal(ctx context.Context) error {
	return h.src.rc.post(ctx, "/api/done", h.ref, nil)
}

// Release is a no-op: the protocol has no give-back, the server reaps a
// grant that stops heartbeating after its TTL.
func (h *grantHold) Release() error { return nil }

// Persist posts the batch as one upload, retrying transient failures
// briefly; a 410 is terminal (fenced), as is persistent transport failure.
func (h *grantHold) Persist(ctx context.Context, recs ...*campaign.Record) error {
	req := serve.IngestRequest{Owner: h.ref.Owner, Shard: h.ref.Shard, Gen: h.ref.Gen,
		Records: make([]campaign.Record, len(recs))}
	for i, rec := range recs {
		req.Records[i] = *rec
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			t := h.src.clk.NewTimer(time.Duration(attempt) * 500 * time.Millisecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		err = h.src.rc.post(ctx, "/api/records", req, nil)
		if err == nil || errors.Is(err, campaign.ErrFenced) || ctx.Err() != nil {
			return err
		}
	}
	return fmt.Errorf("dist: uploading %d records of shard %d: %w", len(recs), h.ref.Shard, err)
}
