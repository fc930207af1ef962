package liveplat

import (
	"fmt"
	"log"
	"net"
	"net/url"
	"sync"
	"time"

	"mfc/internal/core"
	"mfc/internal/wire"
)

// Agent is the remote MFC client daemon (cmd/mfc-client): it registers with
// a coordinator, then executes probe/measure/fire/poll commands received
// over UDP, firing real HTTP requests at the target named in the measure
// command (Figure 2(b)).
type Agent struct {
	ID          string
	Coordinator *net.UDPAddr
	Logf        func(string, ...any)

	conn *net.UDPConn

	mu      sync.Mutex
	client  *goClient // bound to the target after the measure command
	stopped bool
}

// NewAgent creates an agent that will register with the coordinator at
// coordAddr ("host:port").
func NewAgent(id, coordAddr string) (*Agent, error) {
	addr, err := net.ResolveUDPAddr("udp", coordAddr)
	if err != nil {
		return nil, fmt.Errorf("liveplat: resolving coordinator %q: %w", coordAddr, err)
	}
	return &Agent{
		ID:          id,
		Coordinator: addr,
		Logf:        log.Printf,
	}, nil
}

// Run registers and serves commands until Stop. It blocks.
func (a *Agent) Run() error {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{})
	if err != nil {
		return fmt.Errorf("liveplat: agent listen: %w", err)
	}
	a.conn = conn
	defer conn.Close()

	if err := wire.Send(conn, a.Coordinator, &wire.Message{Type: wire.TypeRegister, ClientID: a.ID}); err != nil {
		return fmt.Errorf("liveplat: registering with coordinator: %w", err)
	}
	a.Logf("agent %s registered with %s", a.ID, a.Coordinator)

	for {
		a.mu.Lock()
		stopped := a.stopped
		a.mu.Unlock()
		if stopped {
			return nil
		}
		m, from, err := wire.Recv(conn, time.Now().Add(time.Second))
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			a.Logf("agent %s: recv: %v", a.ID, err)
			continue
		}
		a.handle(m, from)
	}
}

// Stop makes Run return after its current read.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
}

func (a *Agent) reply(to *net.UDPAddr, m *wire.Message) {
	m.ClientID = a.ID
	if err := wire.Send(a.conn, to, m); err != nil {
		a.Logf("agent %s: reply %s: %v", a.ID, m.Type, err)
	}
}

// coreRequests converts a command's wire requests.
func coreRequests(rs []wire.Request) []core.Request {
	reqs := make([]core.Request, len(rs))
	for i, r := range rs {
		reqs[i] = core.Request{Method: r.Method, URL: r.URL}
	}
	return reqs
}

func (a *Agent) handle(m *wire.Message, from *net.UDPAddr) {
	switch m.Type {
	case wire.TypeProbe:
		a.reply(from, &wire.Message{Type: wire.TypeProbeAck, Seq: m.Seq})

	case wire.TypeMeasure:
		// Binding to the target happens here; measurement can take seconds,
		// so it runs synchronously (the coordinator measures clients
		// sequentially by design).
		base, err := url.Parse(m.Target)
		if err != nil || base.Host == "" {
			a.reply(from, &wire.Message{Type: wire.TypeMeasureAck, Seq: m.Seq, Err: "bad target"})
			return
		}
		a.mu.Lock()
		a.client = newGoClient(a.ID, base, NewWallClock())
		cl := a.client
		a.mu.Unlock()

		bl, err := cl.MeasureTarget(coreRequests(m.Requests))
		if err != nil {
			a.reply(from, &wire.Message{Type: wire.TypeMeasureAck, Seq: m.Seq, Err: err.Error()})
			return
		}
		ack := &wire.Message{
			Type:        wire.TypeMeasureAck,
			Seq:         m.Seq,
			TargetRTTNs: int64(bl.TargetRTT),
			BaseTimesNs: make(map[string]int64, len(bl.BaseTimes)),
		}
		for u, d := range bl.BaseTimes {
			ack.BaseTimesNs[u] = int64(d)
		}
		a.reply(from, ack)

	case wire.TypeFire:
		// Fire immediately: the coordinator timed this datagram's departure
		// so that our handshake's first request byte lands at T (§2.2.4).
		a.mu.Lock()
		cl := a.client
		a.mu.Unlock()
		if cl == nil {
			return // fire before measure: drop
		}
		go cl.fire(m.Epoch, coreRequests(m.Requests), time.Duration(m.TimeoutNs))

	case wire.TypePoll:
		a.mu.Lock()
		cl := a.client
		a.mu.Unlock()
		var samples []core.Sample
		if cl != nil { // poll before measure: empty results
			samples, _ = cl.Collect(m.Epoch)
		}
		res := &wire.Message{Type: wire.TypeResults, Epoch: m.Epoch, Seq: m.Seq}
		for _, s := range samples {
			res.Samples = append(res.Samples, wire.Sample{
				Client: s.Client, URL: s.URL, Status: s.Status, Bytes: s.Bytes,
				RespNs: int64(s.Resp), BaseNs: int64(s.Base), Err: s.Err,
			})
		}
		a.reply(from, res)
	}
}
