// Package wire defines the UDP control protocol between the MFC
// coordinator and remote client agents. The paper uses UDP for all control
// messages, with no retransmission (§2.3) — timeliness matters more than
// reliability, and a lost command merely shrinks the observed crowd.
//
// Messages are single JSON-encoded datagrams. Every message carries a Type
// and the sender's ClientID; the remaining fields depend on the type.
package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// MsgType enumerates protocol messages.
type MsgType string

// Protocol message types.
const (
	// TypeRegister: agent -> coordinator, announces availability.
	TypeRegister MsgType = "register"
	// TypeProbe / TypeProbeAck: coordinator liveness+RTT probe.
	TypeProbe    MsgType = "probe"
	TypeProbeAck MsgType = "probe_ack"
	// TypeMeasure / TypeMeasureAck: delay computation. The agent measures
	// its target RTT, which the ack carries, and the base response time of
	// the one request, which it keeps for the samples it reports.
	TypeMeasure    MsgType = "measure"
	TypeMeasureAck MsgType = "measure_ack"
	// TypeFire: issue the epoch's requests immediately on receipt (the
	// coordinator transmits the command at T − 0.5·T_coord − 1.5·T_target).
	TypeFire MsgType = "fire"
	// TypePoll / TypeResults: collect an epoch's samples.
	TypePoll    MsgType = "poll"
	TypeResults MsgType = "results"
)

// Request mirrors core.Request for the wire.
type Request struct {
	Method string `json:"m"`
	URL    string `json:"u"`
}

// Sample mirrors core.Sample for the wire (durations in nanoseconds).
type Sample struct {
	Client string `json:"c"`
	URL    string `json:"u"`
	Status int    `json:"s"`
	Bytes  int64  `json:"b"`
	RespNs int64  `json:"r"`
	BaseNs int64  `json:"n"`
	Err    string `json:"e,omitempty"`
}

// Message is one datagram.
type Message struct {
	Type     MsgType `json:"t"`
	ClientID string  `json:"id"`
	Seq      uint64  `json:"q,omitempty"`

	// Measure fields.
	Target   string    `json:"tg,omitempty"`
	Requests []Request `json:"rq,omitempty"`

	// Fire/Poll fields.
	Epoch     int   `json:"ep,omitempty"`
	TimeoutNs int64 `json:"to,omitempty"`

	// MeasureAck fields.
	TargetRTTNs int64 `json:"rt,omitempty"`

	// Results fields.
	Samples []Sample `json:"sm,omitempty"`

	// Err reports agent-side failures.
	Err string `json:"er,omitempty"`
}

// MaxDatagram is the largest datagram the protocol sends or accepts. MFC
// epochs carry at most a handful of samples per agent, so this is ample.
const MaxDatagram = 8192

// Encode marshals m, enforcing the datagram bound.
func Encode(m *Message) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("wire: encoding %s: %w", m.Type, err)
	}
	if len(b) > MaxDatagram {
		return nil, fmt.Errorf("wire: %s message is %d bytes, exceeds %d", m.Type, len(b), MaxDatagram)
	}
	return b, nil
}

// knownTypes is the closed set of protocol messages; anything else is a
// malformed or hostile datagram and is rejected at decode time, so no
// receive loop needs its own unknown-type handling.
var knownTypes = map[MsgType]bool{
	TypeRegister: true,
	TypeProbe:    true, TypeProbeAck: true,
	TypeMeasure: true, TypeMeasureAck: true,
	TypeFire: true,
	TypePoll: true, TypeResults: true,
}

// Decode unmarshals one datagram, enforcing the size bound and the known
// message-type set. Truncated JSON (including a datagram clipped at the
// read buffer), an unknown Type, and oversized input all return errors the
// caller treats as "drop and keep serving".
func Decode(b []byte) (*Message, error) {
	if len(b) > MaxDatagram {
		return nil, fmt.Errorf("wire: datagram is %d bytes, exceeds %d", len(b), MaxDatagram)
	}
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("wire: decoding datagram: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("wire: datagram without type")
	}
	if !knownTypes[m.Type] {
		return nil, fmt.Errorf("wire: unknown message type %q", m.Type)
	}
	return &m, nil
}

// Send encodes and transmits m to addr over conn.
func Send(conn *net.UDPConn, addr *net.UDPAddr, m *Message) error {
	b, err := Encode(m)
	if err != nil {
		return err
	}
	if addr != nil {
		_, err = conn.WriteToUDP(b, addr)
	} else {
		_, err = conn.Write(b)
	}
	return err
}

// Recv reads one datagram with a deadline (zero = block forever).
func Recv(conn *net.UDPConn, deadline time.Time) (*Message, *net.UDPAddr, error) {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return nil, nil, err
	}
	buf := make([]byte, MaxDatagram)
	n, addr, err := conn.ReadFromUDP(buf)
	if err != nil {
		return nil, nil, err
	}
	m, err := Decode(buf[:n])
	return m, addr, err
}
