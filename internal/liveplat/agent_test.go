package liveplat

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"mfc/internal/wire"
)

// agentHarness runs an agent against a raw UDP socket acting as the
// coordinator, so protocol edge cases can be driven directly.
type agentHarness struct {
	conn  *net.UDPConn
	agent *Agent
	addr  *net.UDPAddr // agent's address, learned from registration
}

func newAgentHarness(t *testing.T) *agentHarness {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	a, err := NewAgent("edge", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	a.Logf = func(string, ...any) {}
	ctx, cancel := context.WithCancel(context.Background())
	go a.Run(ctx)
	t.Cleanup(cancel)

	m, from, err := wire.Recv(conn, time.Now().Add(3*time.Second))
	if err != nil || m.Type != wire.TypeRegister {
		t.Fatalf("registration: %v %v", m, err)
	}
	return &agentHarness{conn: conn, agent: a, addr: from}
}

func (h *agentHarness) send(t *testing.T, m *wire.Message) {
	t.Helper()
	if err := wire.Send(h.conn, h.addr, m); err != nil {
		t.Fatal(err)
	}
}

func (h *agentHarness) recv(t *testing.T) *wire.Message {
	t.Helper()
	m, _, err := wire.Recv(h.conn, time.Now().Add(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAgentAnswersProbe(t *testing.T) {
	h := newAgentHarness(t)
	h.send(t, &wire.Message{Type: wire.TypeProbe, Seq: 5})
	ack := h.recv(t)
	if ack.Type != wire.TypeProbeAck || ack.Seq != 5 || ack.ClientID != "edge" {
		t.Errorf("ack = %+v", ack)
	}
}

func TestAgentFireBeforeMeasureIsDropped(t *testing.T) {
	h := newAgentHarness(t)
	// Fire with no prior measure: the agent has no target binding and must
	// silently drop (UDP semantics; the coordinator just sees a smaller
	// crowd). The subsequent poll returns empty, not an error.
	h.send(t, &wire.Message{Type: wire.TypeFire, Epoch: 1,
		Requests: []wire.Request{{Method: "GET", URL: "/"}}, TimeoutNs: int64(time.Second)})
	h.send(t, &wire.Message{Type: wire.TypePoll, Epoch: 1, Seq: 9})
	res := h.recv(t)
	if res.Type != wire.TypeResults || len(res.Samples) != 0 {
		t.Errorf("results = %+v, want empty", res)
	}
}

func TestAgentMeasureBadTargetReportsError(t *testing.T) {
	h := newAgentHarness(t)
	h.send(t, &wire.Message{Type: wire.TypeMeasure, Seq: 2, Target: "::not a url::",
		Requests: []wire.Request{{Method: "HEAD", URL: "/"}}})
	ack := h.recv(t)
	if ack.Type != wire.TypeMeasureAck || ack.Err == "" {
		t.Errorf("ack = %+v, want an error report", ack)
	}
}

func TestAgentMeasureUnreachableTargetReportsError(t *testing.T) {
	h := newAgentHarness(t)
	// A real URL shape but nothing listening: connection refused.
	h.send(t, &wire.Message{Type: wire.TypeMeasure, Seq: 3,
		Target:   "http://127.0.0.1:1/",
		Requests: []wire.Request{{Method: "HEAD", URL: "/"}}})
	ack := h.recv(t)
	if ack.Err == "" {
		t.Errorf("ack = %+v, want an error for an unreachable target", ack)
	}
}

// A measure command must carry exactly one request: the agent keeps one
// base time. Anything else from the network is answered with an error.
func TestAgentMeasureWantsOneRequest(t *testing.T) {
	h := newAgentHarness(t)
	for seq, rqs := range [][]wire.Request{
		nil,
		{{Method: "HEAD", URL: "/"}, {Method: "GET", URL: "/a"}},
	} {
		h.send(t, &wire.Message{Type: wire.TypeMeasure, Seq: uint64(seq + 1),
			Target: "http://127.0.0.1:1/", Requests: rqs})
		ack := h.recv(t)
		if ack.Type != wire.TypeMeasureAck || !strings.Contains(ack.Err, "want 1") {
			t.Errorf("%d requests: ack = %+v, want an error report", len(rqs), ack)
		}
	}
}

// A barrage of malformed datagrams — truncated JSON, unknown types, an
// oversized payload, binary garbage — must not wedge the agent loop: a
// probe afterwards is still answered.
func TestAgentSurvivesMalformedDatagrams(t *testing.T) {
	h := newAgentHarness(t)
	raw := func(b []byte) {
		if _, err := h.conn.WriteToUDP(b, h.addr); err != nil {
			t.Fatal(err)
		}
	}
	raw([]byte(`{"t":"fire","id":"x"`))         // truncated JSON
	raw([]byte(`{"t":"format_disk","id":"x"}`)) // unknown type
	raw([]byte{0xff, 0xfe, 0x00, 0x01})         // binary garbage
	raw(make([]byte, wire.MaxDatagram+4000))    // oversized: clipped at the read buffer, parse fails
	raw([]byte(`{"id":"x","q":1}`))             // typeless

	h.send(t, &wire.Message{Type: wire.TypeProbe, Seq: 77})
	ack := h.recv(t)
	if ack.Type != wire.TypeProbeAck || ack.Seq != 77 {
		t.Errorf("agent wedged after malformed datagrams: %+v", ack)
	}
}
