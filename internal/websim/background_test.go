package websim

import (
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
)

func bgSite(t *testing.T) *content.Site {
	t.Helper()
	return content.Generate("bg", 3, content.GenConfig{Pages: 10, Queries: 5})
}

func TestBackgroundGeneratesLoad(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, bgSite(t))
	bt := StartBackground(env, srv, BackgroundConfig{Rate: 20})
	env.After(30*time.Second, bt.Stop)
	env.Run(2 * time.Minute)
	// 20 req/s for ~30s: expect on the order of 600 arrivals.
	if bt.Sent() < 400 || bt.Sent() > 900 {
		t.Errorf("Sent = %d, want ~600", bt.Sent())
	}
	if bt.Completed() == 0 {
		t.Error("no background requests completed")
	}
}

func TestBackgroundZeroRateInert(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, bgSite(t))
	bt := StartBackground(env, srv, BackgroundConfig{})
	env.Run(0) // must terminate immediately: no processes scheduled
	if bt.Sent() != 0 {
		t.Errorf("Sent = %d, want 0", bt.Sent())
	}
}

func TestBackgroundBursts(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, bgSite(t))
	bt := StartBackground(env, srv, BackgroundConfig{
		BurstSize: 50, BurstEvery: 5 * time.Second,
	})
	env.After(20*time.Second, bt.Stop)
	env.Run(3 * time.Minute)
	// ~4 bursts of 50 expected over 20s.
	if bt.Sent() < 50 {
		t.Errorf("Sent = %d, want at least one burst", bt.Sent())
	}
	if bt.Sent()%50 != 0 {
		t.Errorf("Sent = %d, want a multiple of the burst size", bt.Sent())
	}
}

func TestMonitorSamplesAndStops(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{ParseCPU: 5 * time.Millisecond}, bgSite(t))
	mon := NewMonitor(env, srv, 100*time.Millisecond)
	for i := 0; i < 20; i++ {
		env.GoAfter("c", time.Duration(i)*20*time.Millisecond, func(p *netsim.Proc) {
			srv.Serve(p, "t", Request{Method: "GET", URL: srv.Site().Base})
		})
	}
	env.After(time.Second, mon.Stop)
	env.Run(time.Minute)
	if len(mon.Samples()) < 5 {
		t.Fatalf("samples = %d, want several", len(mon.Samples()))
	}
	w := mon.Window(0, time.Second)
	if w.CPUUtil <= 0 {
		t.Errorf("window CPU util = %v, want > 0", w.CPUUtil)
	}
	if mon.MaxResident() <= 0 {
		t.Error("MaxResident not recorded")
	}
}
