package liveplat

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/labtarget"
	"mfc/internal/wire"
)

// startAgents launches n agents registering with the platform and returns
// a stop function.
func startAgents(t *testing.T, coordAddr string, n int) func() {
	t.Helper()
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		a, err := NewAgent(agentID(i), coordAddr)
		if err != nil {
			t.Fatal(err)
		}
		a.Logf = func(string, ...any) {}
		agents[i] = a
		go a.Run()
	}
	return func() {
		for _, a := range agents {
			a.Stop()
		}
	}
}

func agentID(i int) string { return string(rune('a'+i)) + "gent" }

// TestUDPEndToEnd drives the complete distributed pipeline over loopback:
// a real lab target, a UDP coordinator platform, and real agents.
func TestUDPEndToEnd(t *testing.T) {
	site := content.Generate("udptest", 9, content.GenConfig{Pages: 6, Queries: 4})
	target := labtarget.New(site, nil)
	ts := httptest.NewServer(target)
	defer ts.Close()

	plat, err := NewUDPPlatform("127.0.0.1:0", ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plat.Close()

	const n = 6
	stop := startAgents(t, plat.Addr().String(), n)
	defer stop()
	if got := plat.WaitForAgents(context.Background(), n, time.Now().Add(5*time.Second)); got < n {
		t.Fatalf("only %d agents registered", got)
	}

	clients, err := plat.ActiveClients()
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != n {
		t.Fatalf("active clients = %d, want %d", len(clients), n)
	}

	// Probe, measure, fire, collect one client end to end.
	cl := clients[0]
	rtt, err := cl.ControlRTT()
	if err != nil || rtt <= 0 {
		t.Fatalf("ControlRTT = %v, %v", rtt, err)
	}
	reqs := []core.Request{{Method: "HEAD", URL: "/index.html"}}
	bl, err := cl.MeasureTarget(reqs)
	if err != nil {
		t.Fatalf("MeasureTarget: %v", err)
	}
	if bl.TargetRTT <= 0 || bl.BaseTimes["/index.html"] <= 0 {
		t.Fatalf("baseline = %+v", bl)
	}

	clock := plat.Clock()
	cl.Fire(1, clock.Now()+300*time.Millisecond, reqs, 5*time.Second)
	time.Sleep(time.Second)
	samples, ok := cl.Collect(1)
	if !ok {
		t.Fatal("poll lost")
	}
	if len(samples) != 1 || samples[0].Status != 200 {
		t.Fatalf("samples = %+v", samples)
	}
	if samples[0].Err != "" {
		t.Errorf("sample error: %s", samples[0].Err)
	}
}

// TestUDPCoordinatorRunsStage runs a full coordinator Base stage over the
// distributed UDP path with compressed timing.
func TestUDPCoordinatorRunsStage(t *testing.T) {
	site := content.Generate("udpstage", 9, content.GenConfig{Pages: 6, Queries: 4})
	target := labtarget.New(site, nil)
	ts := httptest.NewServer(target)
	defer ts.Close()

	plat, err := NewUDPPlatform("127.0.0.1:0", ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plat.Close()

	const n = 8
	stop := startAgents(t, plat.Addr().String(), n)
	defer stop()
	if got := plat.WaitForAgents(context.Background(), n, time.Now().Add(5*time.Second)); got < n {
		t.Fatalf("only %d agents registered", got)
	}

	cfg := core.DefaultConfig()
	cfg.MinClients = n
	cfg.MaxCrowd = n
	cfg.Step = 4
	cfg.EpochGap = 100 * time.Millisecond
	cfg.RequestTimeout = 2 * time.Second
	cfg.ScheduleGuard = 200 * time.Millisecond
	cfg.Threshold = time.Hour // no stop: we only exercise the machinery

	coord := core.New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	prof := &content.Profile{Host: ts.URL, BaseURL: "/index.html",
		ByKind: map[content.Kind]int{}}
	sr := coord.RunStage(context.Background(), core.StageBase, prof)
	if sr.Verdict != core.VerdictNoStop {
		t.Fatalf("verdict = %v, want NoStop", sr.Verdict)
	}
	total := 0
	for _, e := range sr.Epochs {
		total += e.Received
	}
	if total < n { // both epochs should deliver samples
		t.Errorf("received only %d samples across epochs", total)
	}
	if target.Served() == 0 {
		t.Error("target served nothing")
	}
}

// A reply carrying the right Seq but the wrong ClientID must be dropped by
// the platform's reply router — and the drop must not wedge the pending
// rpc, which should still accept the real agent's later reply.
func TestPlatformDropsWrongClientIDReply(t *testing.T) {
	plat, err := NewUDPPlatform("127.0.0.1:0", "http://unused/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plat.Close()

	agent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := wire.Send(agent, plat.Addr(), &wire.Message{Type: wire.TypeRegister, ClientID: "honest"}); err != nil {
		t.Fatal(err)
	}
	if n := plat.WaitForAgents(context.Background(), 1, time.Now().Add(3*time.Second)); n != 1 {
		t.Fatalf("agent did not register (%d)", n)
	}

	// Probe the agent; on the agent side, first answer with a forged
	// ClientID carrying an error marker, then with the honest identity.
	// If the forgery is delivered, the probe errors; if it is dropped,
	// the honest ack wins.
	probeErr := make(chan error, 1)
	go func() {
		clients, err := plat.ActiveClients()
		if err == nil && len(clients) != 1 {
			err = fmt.Errorf("got %d active clients, want 1", len(clients))
		}
		probeErr <- err
	}()

	m, from, err := wire.Recv(agent, time.Now().Add(3*time.Second))
	if err != nil || m.Type != wire.TypeProbe {
		t.Fatalf("probe: %v %v", m, err)
	}
	if err := wire.Send(agent, from, &wire.Message{Type: wire.TypeProbeAck, Seq: m.Seq,
		ClientID: "impostor", Err: "forged reply was accepted"}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Send(agent, from, &wire.Message{Type: wire.TypeProbeAck, Seq: m.Seq,
		ClientID: "honest"}); err != nil {
		t.Fatal(err)
	}
	if err := <-probeErr; err != nil {
		t.Errorf("probe failed: %v", err)
	}
}

// Registrations are unauthenticated datagrams: an empty ClientID is
// rejected, distinct IDs stop at maxAgents however many arrive, and a
// known ID that re-registers from a new address still has it refreshed.
func TestPlatformBoundsAgentRegistry(t *testing.T) {
	plat, err := NewUDPPlatform("127.0.0.1:0", "http://unused/", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plat.Close()
	flood, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer flood.Close()
	moved, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()

	registered := func() int {
		plat.mu.Lock()
		defer plat.mu.Unlock()
		return len(plat.agents)
	}
	register := func(conn *net.UDPConn, id string) {
		if err := wire.Send(conn, plat.Addr(), &wire.Message{Type: wire.TypeRegister, ClientID: id}); err != nil {
			t.Fatal(err)
		}
	}
	// Paced in batches the read loop drains, so the socket buffer never
	// overflows and every datagram is seen.
	register(flood, "")
	const ids = maxAgents + 50
	for i := 0; i < ids; i++ {
		register(flood, fmt.Sprintf("spoof-%d", i))
		if i%64 == 63 || i == ids-1 {
			want := min(i+1, maxAgents)
			deadline := time.Now().Add(5 * time.Second)
			for registered() < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	// Datagrams from one sender are read in order, so once the
	// re-registration from the new address lands, every spoofed
	// registration before it has been handled.
	register(moved, "spoof-0")
	deadline := time.Now().Add(5 * time.Second)
	for {
		plat.mu.Lock()
		addr := plat.agents["spoof-0"].addr
		plat.mu.Unlock()
		if addr.Port == moved.LocalAddr().(*net.UDPAddr).Port {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-registration from a new address was not refreshed")
		}
		time.Sleep(time.Millisecond)
	}
	plat.mu.Lock()
	_, empty := plat.agents[""]
	plat.mu.Unlock()
	if empty {
		t.Error("an empty ClientID was registered")
	}
	if n := registered(); n != maxAgents {
		t.Errorf("registered %d agents from %d distinct IDs, want the cap %d", n, ids, maxAgents)
	}
}
