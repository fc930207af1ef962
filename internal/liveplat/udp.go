package liveplat

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"mfc/internal/core"
	"mfc/internal/wire"
)

// UDPPlatform is the coordinator side of the distributed deployment: it
// accepts agent registrations on a UDP socket and exposes each agent as a
// core.Client.
type UDPPlatform struct {
	clock  *WallClock
	conn   *net.UDPConn
	target string
	logf   func(string, ...any)

	mu      sync.Mutex
	agents  map[string]*udpClient // by client ID
	full    bool                  // a registration was dropped at maxAgents
	pending map[uint64]pendingRPC
	seq     uint64
	closed  bool
}

// maxAgents caps the registry well above the paper's ~100 PlanetLab
// clients: registrations are unauthenticated datagrams, and ActiveClients
// probes every agent in turn.
const maxAgents = 1024

// pendingRPC routes a reply to its waiting request. A reply must match
// both the sequence number and the agent the request went to: a datagram
// claiming someone else's ClientID (misdirected, stale, or spoofed) is
// dropped rather than delivered as the answer.
type pendingRPC struct {
	ch     chan *wire.Message
	client string
}

// NewUDPPlatform listens for agent registrations on listenAddr
// ("host:port"). target is the absolute base URL agents will profile.
func NewUDPPlatform(listenAddr, target string, logf func(string, ...any)) (*UDPPlatform, error) {
	addr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("liveplat: resolving %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("liveplat: listening on %q: %w", listenAddr, err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &UDPPlatform{
		clock:   NewWallClock(),
		conn:    conn,
		target:  target,
		logf:    logf,
		agents:  make(map[string]*udpClient),
		pending: make(map[uint64]pendingRPC),
	}
	go p.readLoop()
	return p, nil
}

// Addr returns the bound UDP address (useful with port 0 in tests).
func (p *UDPPlatform) Addr() *net.UDPAddr { return p.conn.LocalAddr().(*net.UDPAddr) }

// Close shuts the socket down.
func (p *UDPPlatform) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return p.conn.Close()
}

// readLoop dispatches incoming datagrams: registrations create clients;
// replies are routed to waiting requests by sequence number.
func (p *UDPPlatform) readLoop() {
	for {
		m, from, err := wire.Recv(p.conn, time.Time{})
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		switch m.Type {
		case wire.TypeRegister:
			p.register(m.ClientID, from)
		default:
			p.mu.Lock()
			pr, ok := p.pending[m.Seq]
			p.mu.Unlock()
			if !ok {
				continue // no one is waiting; late or unsolicited reply
			}
			if pr.client != "" && m.ClientID != pr.client {
				p.logf("dropping %s reply with ClientID %q, want %q", m.Type, m.ClientID, pr.client)
				continue
			}
			select {
			case pr.ch <- m:
			default:
			}
		}
	}
}

// register refreshes a known agent's address or adds a new one. An empty
// id is rejected, and new ids past maxAgents are dropped (logged once).
func (p *UDPPlatform) register(id string, addr *net.UDPAddr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch c, ok := p.agents[id]; {
	case ok:
		c.addr = addr
	case id == "": // rejected
	case len(p.agents) >= maxAgents:
		if !p.full {
			p.logf("agent registry full at %d agents: dropping registrations of new IDs", maxAgents)
		}
		p.full = true
	default:
		p.agents[id] = &udpClient{platform: p, id: id, addr: addr}
		p.logf("registered agent %s at %s", id, addr)
	}
}

// rpc sends m to addr and waits for the routed reply, which must carry
// the expected agent's ClientID (empty client disables the check).
func (p *UDPPlatform) rpc(addr *net.UDPAddr, client string, m *wire.Message, timeout time.Duration) (*wire.Message, error) {
	p.mu.Lock()
	p.seq++
	m.Seq = p.seq
	ch := make(chan *wire.Message, 1)
	p.pending[m.Seq] = pendingRPC{ch: ch, client: client}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.pending, m.Seq)
		p.mu.Unlock()
	}()

	if err := wire.Send(p.conn, addr, m); err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return nil, fmt.Errorf("liveplat: agent error: %s", reply.Err)
		}
		return reply, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("liveplat: rpc %s to %s timed out", m.Type, addr)
	}
}

// Clock implements core.Platform.
func (p *UDPPlatform) Clock() core.Clock { return p.clock }

// ActiveClients implements core.Platform: agents that answer a probe
// within a second are active (Figure 2(a) step 1).
func (p *UDPPlatform) ActiveClients() ([]core.Client, error) {
	p.mu.Lock()
	all := make([]*udpClient, 0, len(p.agents))
	for _, c := range p.agents {
		all = append(all, c)
	}
	p.mu.Unlock()

	var out []core.Client
	for _, c := range all {
		if _, err := c.probe(); err == nil {
			out = append(out, c)
		}
	}
	return out, nil
}

// WaitForAgents blocks until at least n agents have registered, the
// deadline passes, or ctx is canceled, returning the registered count.
func (p *UDPPlatform) WaitForAgents(ctx context.Context, n int, deadline time.Time) int {
	for {
		p.mu.Lock()
		cnt := len(p.agents)
		p.mu.Unlock()
		if cnt >= n || time.Now().After(deadline) || ctx.Err() != nil {
			return cnt
		}
		select {
		case <-ctx.Done():
			return cnt
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// udpClient adapts one remote agent to core.Client.
type udpClient struct {
	platform *UDPPlatform
	id       string
	addr     *net.UDPAddr

	mu      sync.Mutex
	ctrlRTT time.Duration
	baseRTT time.Duration
}

// ID implements core.Client.
func (c *udpClient) ID() string { return c.id }

func (c *udpClient) probe() (time.Duration, error) {
	t0 := time.Now()
	_, err := c.platform.rpc(c.addr, c.id, &wire.Message{Type: wire.TypeProbe}, time.Second)
	if err != nil {
		return 0, err
	}
	rtt := time.Since(t0)
	c.mu.Lock()
	c.ctrlRTT = rtt
	c.mu.Unlock()
	return rtt, nil
}

// ControlRTT implements core.Client.
func (c *udpClient) ControlRTT() (time.Duration, error) { return c.probe() }

// MeasureTarget implements core.Client.
func (c *udpClient) MeasureTarget(reqs []core.Request) (core.Baseline, error) {
	m := &wire.Message{Type: wire.TypeMeasure, Target: c.platform.target}
	for _, r := range reqs {
		m.Requests = append(m.Requests, wire.Request{Method: r.Method, URL: r.URL})
	}
	// Measurement issues real requests; allow a generous window.
	reply, err := c.platform.rpc(c.addr, c.id, m, 90*time.Second)
	if err != nil {
		return core.Baseline{}, err
	}
	bl := core.Baseline{
		TargetRTT: time.Duration(reply.TargetRTTNs),
		BaseTimes: make(map[string]time.Duration, len(reply.BaseTimesNs)),
	}
	for u, ns := range reply.BaseTimesNs {
		bl.BaseTimes[u] = time.Duration(ns)
	}
	c.mu.Lock()
	c.baseRTT = bl.TargetRTT
	c.mu.Unlock()
	return bl, nil
}

// Fire implements core.Client: transmit the fire datagram at
// arriveAt − 0.5·T_coord − 1.5·T_target so the agent's handshake lands the
// request at ≈arriveAt (§2.2.4). No retransmit: a lost datagram shrinks
// the crowd, as in the paper.
func (c *udpClient) Fire(epoch int, arriveAt time.Duration, reqs []core.Request, timeout time.Duration) {
	c.mu.Lock()
	lead := c.ctrlRTT/2 + c.baseRTT*3/2
	c.mu.Unlock()
	m := &wire.Message{Type: wire.TypeFire, Epoch: epoch, TimeoutNs: int64(timeout)}
	for _, r := range reqs {
		m.Requests = append(m.Requests, wire.Request{Method: r.Method, URL: r.URL})
	}
	sendAt := c.platform.clock.Absolute(arriveAt - lead)
	time.AfterFunc(time.Until(sendAt), func() {
		if err := wire.Send(c.platform.conn, c.addr, m); err != nil {
			c.platform.logf("fire to %s: %v", c.id, err)
		}
	})
}

// Collect implements core.Client.
func (c *udpClient) Collect(epoch int) ([]core.Sample, bool) {
	reply, err := c.platform.rpc(c.addr, c.id, &wire.Message{Type: wire.TypePoll, Epoch: epoch}, 2*time.Second)
	if err != nil {
		return nil, false
	}
	out := make([]core.Sample, 0, len(reply.Samples))
	for _, s := range reply.Samples {
		out = append(out, core.Sample{
			Client: s.Client, URL: s.URL, Status: s.Status, Bytes: s.Bytes,
			Resp: time.Duration(s.RespNs), Base: time.Duration(s.BaseNs), Err: s.Err,
		})
	}
	return out, true
}
