package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock"
	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/population"
)

// oneShardPlan saves a plan whose three jobs share a single shard, so two
// sources can only ever contend for the same claim.
func oneShardPlan(t *testing.T, dir string) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("source-conformance",
		[]population.Band{population.Rank1M}, []core.Stage{core.StageBase}, nil, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

// Both real backends must tell the engine the same story, on one fake
// clock: a claim names the jobs lacking a record, heartbeats keep it, an
// owner that stops beating is taken over once the TTL has passed and not
// before, the displaced owner's heartbeat and seal report ErrFenced, the
// heir sees only the jobs still missing, and once it seals the source
// reports the campaign complete — with the store holding the
// single-process run's bytes.
func TestShardSourceConformance(t *testing.T) {
	want := singleProcessReport(t, oneShardPlan)
	const ttl = 20 * time.Second

	backends := []struct {
		name string
		open func(t *testing.T, clk clock.Clock, dir string) (a, b campaign.ShardSource)
	}{
		{"file-lease", func(t *testing.T, clk clock.Clock, dir string) (a, b campaign.ShardSource) {
			open := func(owner string) campaign.ShardSource {
				src, err := campaign.OpenLeaseSource(clk, dir, owner, ttl)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { src.Close() })
				return src
			}
			return open("a"), open("b")
		}},
		{"http-grant", func(t *testing.T, clk clock.Clock, dir string) (a, b campaign.ShardSource) {
			_, addr := startControlPlane(t, dir, serve.Options{TTL: ttl, Clock: clk})
			rc := &remoteClient{base: normalizeAddr(addr), hc: &http.Client{Timeout: 10 * time.Second}}
			t.Cleanup(rc.hc.CloseIdleConnections)
			return &grantSource{rc: rc, clk: clk, owner: "a"}, &grantSource{rc: rc, clk: clk, owner: "b"}
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			dir := t.TempDir()
			plan := oneShardPlan(t, dir)
			clk := clocktest.New(time.Now())
			srcA, srcB := be.open(t, clk, dir)
			ctx := context.Background()

			a, err := srcA.Claim(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if a.Shard != 0 || a.Takeover || len(a.Jobs) != plan.Jobs() || a.TTL != ttl {
				t.Fatalf("first claim = %+v, want shard 0 fresh with all %d jobs at ttl %v", a, plan.Jobs(), ttl)
			}
			if err := a.Heartbeat(ctx); err != nil {
				t.Fatalf("heartbeat under a live claim: %v", err)
			}
			if err := a.Persist(ctx, campaign.Measure(plan, a.Jobs[0], nil)); err != nil {
				t.Fatalf("persist under a live claim: %v", err)
			}

			// a goes silent. b is told to wait until a's claim has aged past
			// the TTL, then takes it over.
			clk.Advance(ttl)
			if _, err := srcB.Claim(ctx); !errors.Is(err, campaign.ErrWait) {
				t.Fatalf("heir's claim at exactly the TTL: %v, want ErrWait", err)
			}
			clk.Advance(time.Millisecond)
			b, err := srcB.Claim(ctx)
			if err != nil {
				t.Fatalf("heir's claim past the TTL: %v", err)
			}
			if b.Shard != 0 || !b.Takeover {
				t.Fatalf("heir's claim = %+v, want a takeover of shard 0", b)
			}
			if len(b.Jobs) != plan.Jobs()-1 || b.Jobs[0] != a.Jobs[1] {
				t.Fatalf("heir was handed jobs %v, want only the ones a left (%v)", b.Jobs, a.Jobs[1:])
			}

			if err := a.Heartbeat(ctx); !errors.Is(err, campaign.ErrFenced) {
				t.Errorf("displaced owner's heartbeat: %v, want ErrFenced", err)
			}
			if err := a.Seal(ctx); !errors.Is(err, campaign.ErrFenced) {
				t.Errorf("displaced owner's seal: %v, want ErrFenced", err)
			}
			if err := b.Heartbeat(ctx); err != nil {
				t.Errorf("heir's heartbeat after the old owner's attempts: %v", err)
			}

			for _, j := range b.Jobs {
				if err := b.Persist(ctx, campaign.Measure(plan, j, nil)); err != nil {
					t.Fatalf("heir persist: %v", err)
				}
			}
			if err := b.Seal(ctx); err != nil {
				t.Fatalf("heir seal: %v", err)
			}
			if _, err := srcB.Claim(ctx); !errors.Is(err, campaign.ErrComplete) {
				t.Errorf("claim after the last seal: %v, want ErrComplete", err)
			}

			var got bytes.Buffer
			if err := campaign.Report(dir, &got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Errorf("report differs from single-process run:\n--- want\n%s\n--- got\n%s", want, got.String())
			}
		})
	}
}
