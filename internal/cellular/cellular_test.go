package cellular

import (
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/stats"
)

func TestModemStartsIdle(t *testing.T) {
	sim := simtime.New(1)
	m := NewModem(sim, UMTS(), nil)
	if m.state != Idle {
		t.Fatal("modem should start IDLE")
	}
}

func TestPromotionOnSendAndDemotionTimers(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 1, Radio: UMTS(), CoreRTT: 40 * time.Millisecond, TraceCap: 1000})
	m := tb.Modem
	tb.Phone.SendEcho(tb.serverIP, 1, 1, 32)
	// Promotion takes ~2s; until then the modem is promoting from IDLE.
	tb.Sim.RunFor(100 * time.Millisecond)
	if m.state == DCH {
		t.Fatal("modem reached DCH instantly; promotion cost missing")
	}
	tb.Sim.RunFor(3 * time.Second)
	if m.state != DCH {
		t.Fatalf("state = %v after promotion, want DCH", m.state)
	}
	// T1 (5s) then demotes to FACH, T2 (12s) to IDLE.
	tb.Sim.RunFor(6 * time.Second)
	if m.state != FACH {
		t.Fatalf("state = %v after T1, want FACH", m.state)
	}
	tb.Sim.RunFor(13 * time.Second)
	if m.state != Idle {
		t.Fatalf("state = %v after T2, want IDLE", m.state)
	}
	var demotions []string
	for _, e := range tb.Trace.Filter("rrc") {
		if strings.HasPrefix(e.Name, "demote_") {
			demotions = append(demotions, e.Name)
		}
	}
	if m.Stats.Promotions != 1 || len(demotions) != 2 {
		t.Fatalf("promotions = %d, demotions = %v; want 1 and 2", m.Stats.Promotions, demotions)
	}
}

func TestFastPingsStayInDCH(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 2, Radio: UMTS(), CoreRTT: 40 * time.Millisecond})
	res := tb.Ping(30, 500*time.Millisecond) // well under T1=5s
	if res.Lost > 1 {
		t.Fatalf("lost %d probes", res.Lost)
	}
	// The probes issued before the IDLE→DCH promotion (~2s) completes
	// all queue and flush together: the earliest-sent one shows the full
	// promotion in its RTT.
	if max := res.RTTs.Max(); max < 1800*time.Millisecond {
		t.Fatalf("max RTT = %v, want promotion-inflated (≥1.8s)", max)
	}
	// Once in DCH the campaign is clean: the median over all probes is
	// the pure path RTT (CoreRTT 40ms + 2×DCH latency + kernel costs).
	med := stats.Millis(res.RTTs.Median())
	if med < 80 || med > 150 {
		t.Fatalf("median = %.1fms", med)
	}
	if tb.Modem.Stats.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", tb.Modem.Stats.Promotions)
	}
}

func TestSlowPingsPayPromotionEveryTime(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 3, Radio: UMTS(), CoreRTT: 40 * time.Millisecond})
	res := tb.Ping(8, 20*time.Second) // beyond T2: modem is IDLE each time
	if res.Lost != 0 {
		t.Fatalf("lost %d", res.Lost)
	}
	med := stats.Millis(res.RTTs.Median())
	if med < 1800 {
		t.Fatalf("median = %.0fms, want promotion-dominated (≥1.8s)", med)
	}
	if tb.Modem.Stats.Promotions < 8 {
		t.Fatalf("promotions = %d, want one per probe", tb.Modem.Stats.Promotions)
	}
}

func TestIntermediateIntervalHitsFACH(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 4, Radio: UMTS(), CoreRTT: 40 * time.Millisecond})
	res := tb.Ping(8, 7*time.Second) // between T1 and T1+T2: FACH→DCH each time
	med := stats.Millis(res.RTTs[1:].Median())
	// FACH→DCH ~0.5-0.9s promotion.
	if med < 500 || med > 1300 {
		t.Fatalf("median = %.0fms, want FACH-promotion regime", med)
	}
}

func TestAcuteMonOverCellular(t *testing.T) {
	// The §4 extension claim: background traffic pins the modem in DCH,
	// so probes see only the true path RTT.
	tb := NewTestbed(TestbedConfig{Seed: 5, Radio: UMTS(), CoreRTT: 40 * time.Millisecond})
	tb.Sim.RunFor(30 * time.Second) // modem settles into IDLE
	res := tb.RunAcuteMon(30, 2500*time.Millisecond /* dpre > IdleToDCH */, time.Second, 0)
	if res.Lost > 2 {
		t.Fatalf("lost %d probes", res.Lost)
	}
	med := stats.Millis(res.RTTs.Median())
	if med < 80 || med > 130 {
		t.Fatalf("AcuteMon cellular median = %.1fms, want clean DCH RTT", med)
	}
	// No probe should pay a promotion.
	if max := stats.Millis(res.RTTs.Max()); max > 300 {
		t.Fatalf("max RTT = %.0fms: some probe hit a promotion", max)
	}
	if res.BackgroundSent == 0 {
		t.Fatal("no background traffic sent")
	}
}

func TestLTEPromotionsAreCheaper(t *testing.T) {
	umts := NewTestbed(TestbedConfig{Seed: 6, Radio: UMTS(), CoreRTT: 40 * time.Millisecond})
	lte := NewTestbed(TestbedConfig{Seed: 6, Radio: LTE(), CoreRTT: 40 * time.Millisecond})
	ru := umts.Ping(3, 30*time.Second)
	rl := lte.Ping(3, 90*time.Second) // LTE T2=60s: still IDLE each probe
	if rl.RTTs.Median() >= ru.RTTs.Median() {
		t.Fatalf("LTE promotion RTT (%v) should undercut UMTS (%v)",
			rl.RTTs.Median(), ru.RTTs.Median())
	}
}

func TestDownlinkPagingFromIdle(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 7, Radio: UMTS(), CoreRTT: 40 * time.Millisecond})
	// Server-initiated traffic to an IDLE modem pays paging + promotion
	// latency before the phone sees it.
	var at time.Duration
	sink, err := tb.Phone.OpenUDP(7777)
	if err != nil {
		t.Fatal(err)
	}
	sink.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, now time.Duration) {
		at = now
	})
	srvSock, err := tb.Server.OpenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	start := tb.Sim.Now()
	srvSock.SendTo(packet.IP(10, 20, 0, 2), 7777, []byte("wake up"), 0)
	tb.Sim.RunFor(5 * time.Second)
	if at == 0 {
		t.Fatal("downlink packet never delivered")
	}
	oneWay := at - start
	// CoreRTT/2 (20ms) + paging (150-400ms) + DCH latency.
	if oneWay < 150*time.Millisecond {
		t.Fatalf("one-way = %v, want paging-inflated (≥150ms)", oneWay)
	}
	if tb.Modem.state != DCH {
		t.Fatalf("modem state = %v after paging, want DCH", tb.Modem.state)
	}
}

func TestDeterministicCellularRuns(t *testing.T) {
	run := func() time.Duration {
		tb := NewTestbed(TestbedConfig{Seed: 8, Radio: UMTS(), CoreRTT: 30 * time.Millisecond})
		res := tb.Ping(5, time.Second)
		return res.RTTs.Mean()
	}
	if run() != run() {
		t.Fatal("cellular runs diverged")
	}
}
