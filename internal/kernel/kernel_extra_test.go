package kernel

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

func TestCloseListenerCausesRST(t *testing.T) {
	sim, a, b := pair(20)
	b.Listen(80)
	delete(b.listeners, 80)
	conn := a.Dial(b.IP(), 80)
	var rst bool
	conn.OnReset = func(at time.Duration, p *packet.Packet) { rst = true }
	sim.RunUntil(100 * time.Millisecond)
	if !rst {
		t.Fatal("SYN to closed listener did not draw RST")
	}
}

func TestPersistentConnectionMultipleExchanges(t *testing.T) {
	sim, a, b := pair(21)
	l := b.Listen(80)
	served := 0
	l.OnConn = func(c *TCPConn) {
		c.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
			served++
			c.Send([]byte("resp"))
		}
	}
	conn := a.Dial(b.IP(), 80)
	got := 0
	conn.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
		got++
		if got < 5 {
			conn.Send([]byte("req"))
		}
	}
	conn.OnConnected = func(at time.Duration, p *packet.Packet) { conn.Send([]byte("req")) }
	sim.RunUntil(time.Second)
	if served != 5 || got != 5 {
		t.Fatalf("served=%d got=%d, want 5 request/response rounds", served, got)
	}
}

func TestSequenceNumbersAdvance(t *testing.T) {
	sim, a, b := pair(22)
	l := b.Listen(80)
	var seqs []uint32
	l.OnConn = func(c *TCPConn) {
		c.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
			seqs = append(seqs, p.TCP().Seq)
			c.Send([]byte("k"))
		}
	}
	conn := a.Dial(b.IP(), 80)
	sentRounds := 0
	send := func() { conn.Send(bytes.Repeat([]byte("x"), 100)) }
	conn.OnConnected = func(time.Duration, *packet.Packet) { send() }
	conn.OnData = func([]byte, time.Duration, *packet.Packet) {
		sentRounds++
		if sentRounds < 3 {
			send()
		}
	}
	sim.RunUntil(time.Second)
	if len(seqs) != 3 {
		t.Fatalf("segments = %d", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+100 {
			t.Fatalf("seq did not advance by payload: %v", seqs)
		}
	}
}

func TestICMPHandlerUnregister(t *testing.T) {
	sim, a, b := pair(23)
	hits := 0
	a.OnICMP(9, func(*packet.ICMP, *packet.Packet, time.Duration) { hits++ })
	a.SendEcho(b.IP(), 9, 0, 8)
	sim.RunUntil(100 * time.Millisecond)
	a.CloseICMP(9)
	a.SendEcho(b.IP(), 9, 1, 8)
	sim.RunUntil(200 * time.Millisecond)
	if hits != 1 {
		t.Fatalf("handler hits = %d, want 1 (unregistered before second)", hits)
	}
}

func TestEphemeralPortsDoNotCollide(t *testing.T) {
	_, a, _ := pair(24)
	seen := map[uint16]bool{}
	for i := 0; i < 500; i++ {
		s, err := a.OpenUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.port] {
			t.Fatalf("ephemeral port %d reused while open", s.port)
		}
		seen[s.port] = true
	}
}

// Property: UDP payloads of arbitrary content survive the stack
// end-to-end.
func TestQuickUDPPayloadIntegrity(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		sim, a, b := pair(25)
		srv, err := b.OpenUDP(7)
		if err != nil {
			return false
		}
		var got []byte
		srv.SetRecv(func(p []byte, _ packet.IPv4Addr, _ uint16, _ *packet.Packet, _ time.Duration) {
			got = p
		})
		cli, err := a.OpenUDP(0)
		if err != nil {
			return false
		}
		cli.SendTo(b.IP(), 7, payload, 0)
		sim.RunUntil(50 * time.Millisecond)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
