package mfc

import (
	"context"
	"testing"
)

// TestKernelHandoffsPerRequest states the point of the stackless request
// path as a count, not a time: no simulated request runs on a goroutine, so
// a whole experiment performs fewer goroutine handoffs than it serves
// requests. What is left is the coordinator — its epoch sleeps, control
// pings and one wait per client baseline (about 0.4 per request on QTNP;
// a goroutine per request cost about 7).
func TestKernelHandoffsPerRequest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 50
	run, err := Run(context.Background(), SimTarget{
		Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: 1,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := run.Kernel
	requests := uint64(len(run.Server.AccessLog()))
	if requests == 0 || k.Dispatched == 0 || k.Inline == 0 || k.Flushes == 0 || k.CalendarPeak == 0 {
		t.Fatalf("kernel counters not populated: %+v for %d requests", k, requests)
	}
	if k.Handoffs > requests {
		t.Errorf("%d goroutine handoffs for %d simulated requests (%.2f per request), want <= 1",
			k.Handoffs, requests, float64(k.Handoffs)/float64(requests))
	}
	if k.Inline < 5*requests {
		t.Errorf("only %d task steps for %d requests; the request path is not running as tasks", k.Inline, requests)
	}
	t.Logf("%d requests: %d entries dispatched, %d handoffs (%.2f/request), %d inline steps, %d waterfills, calendar peak %d",
		requests, k.Dispatched, k.Handoffs, float64(k.Handoffs)/float64(requests), k.Inline, k.Flushes, k.CalendarPeak)
}
