package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/serve"
	"mfc/internal/obs"
)

// A worker run to completion leaves a complete span story in dir/spans:
// one work root, a claim event and a sealed shard span per shard, and a
// job span per job — all under the plan-derived trace id.
func TestWorkerSpansSpilled(t *testing.T) {
	dir := t.TempDir()
	plan := distPlan(t, dir)

	rec := obs.NewSpanRecorder("w-spans", 0)
	st, err := Work(context.Background(), dir, WorkOptions{
		Owner: "w-spans", Workers: 2, Poll: 20 * time.Millisecond, Spans: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewlyDone != plan.Jobs() {
		t.Fatalf("worker measured %d jobs, want %d", st.NewlyDone, plan.Jobs())
	}

	spans, err := campaign.ReadSpans(dir)
	if err != nil {
		t.Fatal(err)
	}
	trace := campaign.PlanTraceID(plan)
	var roots, shards, sealed, jobs, claims int
	var rootID uint64
	for i := range spans {
		sp := &spans[i]
		if sp.Trace != trace {
			t.Fatalf("span %d carries trace %q, want plan trace %q", sp.ID, sp.Trace, trace)
		}
		if sp.Worker != "w-spans" {
			t.Fatalf("span %d carries worker %q", sp.ID, sp.Worker)
		}
		switch sp.Cat {
		case "work":
			roots++
			rootID = sp.ID
		case "shard":
			shards++
			if sp.Attr("sealed") == "true" {
				sealed++
			}
		case "job":
			jobs++
		case "claim":
			claims++
		}
	}
	if roots != 1 {
		t.Errorf("got %d work roots, want 1", roots)
	}
	if shards != plan.Shards() || sealed != plan.Shards() {
		t.Errorf("got %d shard spans (%d sealed), want %d sealed shards", shards, sealed, plan.Shards())
	}
	if claims != plan.Shards() {
		t.Errorf("got %d claim events, want %d", claims, plan.Shards())
	}
	if jobs != plan.Jobs() {
		t.Errorf("got %d job spans, want %d", jobs, plan.Jobs())
	}
	for i := range spans {
		if spans[i].Cat == "shard" && spans[i].Parent != rootID {
			t.Errorf("shard span %d hangs off parent %d, want work root %d", spans[i].ID, spans[i].Parent, rootID)
		}
	}
}

// A joined worker has no filesystem shared with the plan: its spans must
// ship to the control plane over POST /api/spans, adopt the server's
// trace id, and land in the server's spans directory where `mfc-campaign
// trace` merges them.
func TestRemoteWorkerSpansShipped(t *testing.T) {
	dir := t.TempDir()
	plan := distPlan(t, dir)
	_, addr, _ := startControlPlane(t, dir, serve.Options{})

	rec := obs.NewSpanRecorder("remote-spans", 0)
	st, err := WorkRemote(context.Background(), addr, WorkOptions{
		Owner: "remote-spans", Workers: 2, Poll: 20 * time.Millisecond, Spans: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.NewlyDone != plan.Jobs() {
		t.Fatalf("remote worker measured %d jobs, want %d", st.NewlyDone, plan.Jobs())
	}
	if got, want := rec.Trace(), campaign.PlanTraceID(plan); got != want {
		t.Errorf("recorder trace = %q, want the server's %q (adopted from %s)", got, want, serve.TraceHeader)
	}

	spans, err := campaign.ReadSpans(dir)
	if err != nil {
		t.Fatal(err)
	}
	var roots, shards, jobs int
	for i := range spans {
		if spans[i].Worker != "remote-spans" {
			t.Fatalf("span %d carries worker %q", spans[i].ID, spans[i].Worker)
		}
		switch spans[i].Cat {
		case "work":
			roots++
		case "shard":
			shards++
		case "job":
			jobs++
		}
	}
	if roots != 1 || shards != plan.Shards() || jobs != plan.Jobs() {
		t.Errorf("server collected %d roots/%d shards/%d jobs, want 1/%d/%d",
			roots, shards, jobs, plan.Shards(), plan.Jobs())
	}
}

// A worker canceled mid-shard must still leave a well-formed spans file:
// the deferred spiller Close force-closes open spans as partial and
// flushes, so the kill is visible in the merged trace rather than
// corrupting it.
func TestCanceledWorkerSpansWellFormed(t *testing.T) {
	dir := t.TempDir()
	plan := distPlan(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	rec := obs.NewSpanRecorder("w-dead", 0)
	_, err := Work(ctx, dir, WorkOptions{
		Owner: "w-dead", Workers: 1, Poll: 20 * time.Millisecond, Spans: rec,
		OnClaim: func(int) { cancel() }, // die holding the first shard
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Work returned %v, want context.Canceled", err)
	}

	spans, err := campaign.ReadSpans(dir)
	if err != nil {
		t.Fatalf("canceled worker's span file is not well-formed: %v", err)
	}
	trace := campaign.PlanTraceID(plan)
	var roots, claims int
	for i := range spans {
		sp := &spans[i]
		if sp.Trace != trace {
			t.Fatalf("span %d carries trace %q, want %q", sp.ID, sp.Trace, trace)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %d ends before it starts: %+v", sp.ID, *sp)
		}
		switch sp.Cat {
		case "work":
			roots++
		case "claim":
			claims++
		}
	}
	if roots != 1 || claims == 0 {
		t.Errorf("got %d work roots and %d claim events, want 1 root and >=1 claim", roots, claims)
	}
	for i := range spans {
		if spans[i].Cat == "shard" && spans[i].Attr("sealed") == "true" {
			t.Errorf("canceled worker sealed shard span %d: %+v", spans[i].ID, spans[i])
		}
	}
}
