package cellular

import (
	"context"
	"time"

	"repro/internal/kernel"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Testbed is the cellular analogue of the WiFi rig: a phone stack behind
// a modem, an operator core network with configurable extra delay, and a
// measurement server.
type Testbed struct {
	Sim    *simtime.Sim
	Fac    *packet.Factory
	Modem  *Modem
	Phone  *kernel.Stack
	Server *kernel.Stack
	Trace  *trace.Trace

	phoneIP, serverIP packet.IPv4Addr
}

// TestbedConfig parameterises the cellular testbed.
type TestbedConfig struct {
	Seed int64
	// Radio selects the RRC model (UMTS() or LTE()).
	Radio Config
	// CoreRTT is the additional round trip inside the operator core and
	// Internet path (split half per direction).
	CoreRTT  time.Duration
	TraceCap int
}

// NewTestbed assembles a cellular testbed.
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.Radio.Name == "" {
		cfg.Radio = UMTS()
	}
	tb := &Testbed{
		Sim:      simtime.New(cfg.Seed),
		Fac:      &packet.Factory{},
		phoneIP:  packet.IP(10, 20, 0, 2),
		serverIP: packet.IP(10, 0, 0, 9),
	}
	if cfg.TraceCap > 0 {
		tb.Trace = trace.New(cfg.TraceCap)
	}
	tb.Modem = NewModem(tb.Sim, cfg.Radio, tb.Trace)
	tb.Phone = kernel.New(tb.Sim, kernel.PhoneConfig(tb.phoneIP), tb.Modem, tb.Fac, tb.Trace)

	serverDev := kernel.DeviceFunc(func(p *packet.Packet) {
		// Server → core network → modem downlink.
		tb.Sim.Post(cfg.CoreRTT/2, func() {
			if p.IPv4() != nil && p.IPv4().Dst == tb.phoneIP {
				tb.Modem.DeliverFromNet(p)
			}
		})
	})
	tb.Server = kernel.New(tb.Sim, kernel.ServerConfig(tb.serverIP), serverDev, tb.Fac, tb.Trace)

	tb.Modem.Connect(func(p *packet.Packet) {
		// Modem uplink → core network → server.
		tb.Sim.Post(cfg.CoreRTT/2, func() {
			if p.IPv4() != nil && p.IPv4().Dst == tb.serverIP {
				tb.Server.DeliverFromDevice(p)
			}
		})
	}, tb.Phone.DeliverFromDevice)
	return tb
}

// ServerIP returns the measurement server address.
func (tb *Testbed) ServerIP() packet.IPv4Addr { return tb.serverIP }

// PingResult is one cellular ping campaign.
type PingResult struct {
	RTTs stats.Sample
	Sent int
	Lost int
}

// Ping sends count ICMP probes at the given interval and collects RTTs.
func (tb *Testbed) Ping(count int, interval time.Duration) PingResult {
	res, _ := tb.PingContext(context.Background(), count, interval, nil)
	return res
}

// PingContext is Ping under cooperative cancellation. onProbe (may be
// nil) observes every probe: completed probes as their replies arrive
// in virtual time, lost probes once the run drains. A cancelled context
// returns the partial result alongside ctx's error; unresolved probes
// are then neither ok nor lost.
func (tb *Testbed) PingContext(ctx context.Context, count int, interval time.Duration, onProbe func(seq int, rtt time.Duration, ok bool)) (PingResult, error) {
	var res PingResult
	const id = 0xCE11
	recv := make([]bool, count)
	sent := make([]time.Duration, count)
	tb.Phone.OnICMP(id, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) {
		i := int(ic.Seq)
		if i < count && !recv[i] {
			recv[i] = true
			res.RTTs = append(res.RTTs, at-sent[i])
			if onProbe != nil {
				onProbe(i, at-sent[i], true)
			}
		}
	})
	for i := 0; i < count; i++ {
		i := i
		tb.Sim.Post(time.Duration(i)*interval, func() {
			sent[i] = tb.Sim.Now()
			res.Sent++
			tb.Phone.SendEcho(tb.serverIP, id, uint16(i), 56)
		})
	}
	err := tb.Sim.RunUntilCtx(ctx, tb.Sim.Now()+time.Duration(count)*interval+10*time.Second)
	tb.Phone.CloseICMP(id)
	if err != nil {
		return res, err
	}
	for i, ok := range recv {
		if !ok {
			res.Lost++
			if onProbe != nil {
				onProbe(i, 0, false)
			}
		}
	}
	return res, nil
}

// AcuteMonResult is a cellular AcuteMon run.
type AcuteMonResult struct {
	RTTs           stats.Sample
	Sent           int
	BackgroundSent int
	Lost           int
}

// RunAcuteMon applies the AcuteMon scheme over cellular: a warm-up
// packet promotes the modem to DCH; background packets every db keep it
// there (db needs only to undercut T1, so the background rate can be
// far lower than WiFi's 20 ms); K stop-and-wait UDP probes measure.
func (tb *Testbed) RunAcuteMon(k int, dpre, db time.Duration, probeTimeout time.Duration) AcuteMonResult {
	res, _ := tb.RunAcuteMonContext(context.Background(), k, dpre, db, probeTimeout, AcuteMonHooks{})
	return res
}

// AcuteMonHooks carries the optional knobs of a cellular AcuteMon run.
type AcuteMonHooks struct {
	// OnProbe observes every probe (completed and timed-out, in probe
	// order — the scheme is stop-and-wait).
	OnProbe func(seq int, rtt time.Duration, ok bool)
	// NoBackground suppresses the warm-up packet and the background
	// stream entirely (the A/B ablation arm): probes then pay RRC
	// promotions exactly as a naive tool would.
	NoBackground bool
	// BackgroundTTL overrides the TTL on warm-up/background packets
	// (0 → 1; they die in the operator core either way).
	BackgroundTTL byte
}

// RunAcuteMonContext is RunAcuteMon under cooperative cancellation,
// with per-run hooks.
func (tb *Testbed) RunAcuteMonContext(ctx context.Context, k int, dpre, db time.Duration, probeTimeout time.Duration, hooks AcuteMonHooks) (AcuteMonResult, error) {
	if probeTimeout <= 0 {
		probeTimeout = 5 * time.Second
	}
	if hooks.BackgroundTTL == 0 {
		hooks.BackgroundTTL = 1
	}
	onProbe := hooks.OnProbe
	var res AcuteMonResult
	bg, err := tb.Phone.OpenUDP(0)
	if err != nil {
		panic("cellular: bg socket: " + err.Error())
	}
	defer bg.Close()
	// Warm-up: TTL=1 packets die at the operator gateway in real life;
	// here the core network simply has no host at the warm-up address.
	warmupIP := packet.IP(10, 20, 0, 1)
	if !hooks.NoBackground {
		bg.SendTo(warmupIP, 9, []byte{0xAC}, hooks.BackgroundTTL)
	}

	stop := false
	var bgLoop func()
	bgLoop = func() {
		if stop || hooks.NoBackground {
			return
		}
		tb.Sim.Post(db, func() {
			if stop {
				return
			}
			bg.SendTo(warmupIP, 9, []byte{0xAC}, hooks.BackgroundTTL)
			res.BackgroundSent++
			bgLoop()
		})
	}

	probeSock, err := tb.Phone.OpenUDP(0)
	if err != nil {
		panic("cellular: probe socket: " + err.Error())
	}
	defer probeSock.Close()

	done := false
	var sentAt time.Duration
	var probe func(i int)
	waiting := -1
	probeSock.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
		if waiting < 0 {
			return
		}
		res.RTTs = append(res.RTTs, at-sentAt)
		i := waiting
		waiting = -1
		if onProbe != nil {
			onProbe(i, at-sentAt, true)
		}
		probe(i + 1)
	})
	probe = func(i int) {
		if i >= k {
			stop = true
			done = true
			return
		}
		sentAt = tb.Sim.Now()
		waiting = i
		res.Sent++
		probeSock.SendTo(tb.serverIP, 7, []byte{byte(i)}, 0)
		deadline := i
		tb.Sim.Post(probeTimeout, func() {
			if waiting == deadline {
				waiting = -1
				res.Lost++
				if onProbe != nil {
					onProbe(deadline, 0, false)
				}
				probe(deadline + 1)
			}
		})
	}
	// UDP echo on the server side.
	echo, err := tb.Server.OpenUDP(7)
	if err != nil {
		panic("cellular: echo socket: " + err.Error())
	}
	defer echo.Close()
	echo.SetRecv(func(payload []byte, from packet.IPv4Addr, fp uint16, p *packet.Packet, at time.Duration) {
		echo.SendTo(from, fp, payload, 0)
	})

	tb.Sim.Post(dpre, func() {
		bgLoop()
		probe(0)
	})
	limit := tb.Sim.Now() + dpre + time.Duration(k+2)*probeTimeout + 10*time.Second
	err = tb.Sim.StepUntilCtx(ctx, limit, func() bool { return done })
	stop = true
	return res, err
}
