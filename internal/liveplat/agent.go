package liveplat

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/url"
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

	// Touched only by Run's goroutine.
	conn   *net.UDPConn
	client *goClient // bound to the target after the measure command
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

// Run registers and serves commands until ctx is done, noticing within the
// one-second read deadline. It blocks.
func (a *Agent) Run(ctx context.Context) error {
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

	for ctx.Err() == nil {
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
	return nil
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
		if len(m.Requests) != 1 {
			a.reply(from, &wire.Message{Type: wire.TypeMeasureAck, Seq: m.Seq,
				Err: fmt.Sprintf("measure carries %d requests, want 1", len(m.Requests))})
			return
		}
		a.client = newGoClient(a.ID, base, NewWallClock())
		rtt, err := a.client.MeasureTarget(core.Request{Method: m.Requests[0].Method, URL: m.Requests[0].URL})
		if err != nil {
			a.reply(from, &wire.Message{Type: wire.TypeMeasureAck, Seq: m.Seq, Err: err.Error()})
			return
		}
		a.reply(from, &wire.Message{Type: wire.TypeMeasureAck, Seq: m.Seq, TargetRTTNs: int64(rtt)})

	case wire.TypeFire:
		// Fire immediately: the coordinator timed this datagram's departure
		// so that our handshake's first request byte lands at T (§2.2.4).
		if a.client == nil {
			return // fire before measure: drop
		}
		go a.client.fire(m.Epoch, coreRequests(m.Requests), time.Duration(m.TimeoutNs))

	case wire.TypePoll:
		var samples []core.Sample
		if a.client != nil { // poll before measure: empty results
			samples, _ = a.client.Collect(m.Epoch)
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
