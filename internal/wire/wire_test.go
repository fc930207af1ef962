package wire

import (
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRegister, ClientID: "a"},
		{Type: TypeProbe, ClientID: "b", Seq: 7},
		{Type: TypeProbeAck, ClientID: "b", Seq: 7},
		{Type: TypeMeasure, ClientID: "c", Target: "http://x/", Requests: []Request{{Method: "HEAD", URL: "/"}}},
		{Type: TypeMeasureAck, ClientID: "c", TargetRTTNs: 12345},
		{Type: TypeFire, ClientID: "d", Epoch: 3, TimeoutNs: int64(10 * time.Second),
			Requests: []Request{{Method: "GET", URL: "/big"}}},
		{Type: TypePoll, ClientID: "d", Epoch: 3},
		{Type: TypeResults, ClientID: "d", Epoch: 3, Samples: []Sample{
			{Client: "d", URL: "/big", Status: 200, Bytes: 1000, RespNs: 5, BaseNs: 2},
			{Client: "d", URL: "/big", Err: "ERR", RespNs: int64(10 * time.Second)},
		}},
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %s: %v", m.Type, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Type, err)
		}
		if got.Type != m.Type || got.ClientID != m.ClientID || got.Seq != m.Seq ||
			got.Epoch != m.Epoch || len(got.Samples) != len(m.Samples) ||
			len(got.Requests) != len(m.Requests) {
			t.Errorf("round trip mismatch: sent %+v got %+v", m, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode([]byte(`{"id":"x"}`)); err == nil {
		t.Error("typeless datagram accepted")
	}
}

func TestEncodeEnforcesDatagramBound(t *testing.T) {
	m := &Message{Type: TypeResults}
	for i := 0; i < 2000; i++ {
		m.Samples = append(m.Samples, Sample{Client: "cccccccccc", URL: "/uuuuuuuuuu"})
	}
	if _, err := Encode(m); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized message accepted: %v", err)
	}
}

// Property: any message surviving Encode round-trips losslessly on the
// fields the protocol relies on.
func TestRoundTripProperty(t *testing.T) {
	f := func(id string, seq uint64, epoch uint16, rtt int64) bool {
		m := &Message{
			Type: TypeMeasureAck, ClientID: id, Seq: seq,
			Epoch: int(epoch), TargetRTTNs: rtt,
		}
		b, err := Encode(m)
		if err != nil {
			// Only a pathological ClientID can overflow the bound.
			return len(id) > MaxDatagram/2
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return got.ClientID == id && got.Seq == seq && got.Epoch == int(epoch) && got.TargetRTTNs == rtt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSendRecvOverLoopback(t *testing.T) {
	server, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := &Message{Type: TypeProbe, ClientID: "x", Seq: 42}
	if err := Send(client, server.LocalAddr().(*net.UDPAddr), want); err != nil {
		t.Fatal(err)
	}
	got, from, err := Recv(server, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeProbe || got.Seq != 42 {
		t.Errorf("got %+v", got)
	}
	// Reply using the sender address.
	if err := Send(server, from, &Message{Type: TypeProbeAck, Seq: 42}); err != nil {
		t.Fatal(err)
	}
	ack, _, err := Recv(client, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != TypeProbeAck {
		t.Errorf("ack = %+v", ack)
	}
}

func TestRecvTimeout(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _, err = Recv(conn, time.Now().Add(50*time.Millisecond))
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Errorf("err = %v, want timeout", err)
	}
}

// Malformed datagrams every receive loop must survive: truncated JSON
// (including a datagram clipped at the read buffer), unknown types, and
// oversized payloads are all decode errors, never messages.
func TestDecodeRejectsMalformedDatagrams(t *testing.T) {
	full, err := Encode(&Message{Type: TypeFire, ClientID: "a", Epoch: 2,
		Requests: []Request{{Method: "GET", URL: "/x"}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated json":  full[:len(full)-3],
		"clipped mid-key": full[:len(full)/2],
		"empty":           {},
		"unknown type":    []byte(`{"t":"self_destruct","id":"x"}`),
		"typeless":        []byte(`{"id":"x","q":3}`),
		"oversized":       append([]byte(`{"t":"results","id":"`), append(make([]byte, MaxDatagram), []byte(`"}`)...)...),
		"binary garbage":  {0xff, 0x00, 0x01, 0xfe},
	}
	for name, b := range cases {
		if m, err := Decode(b); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
}
