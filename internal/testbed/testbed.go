// Package testbed assembles the complete experimental rig of the
// paper's Figure 2: a smartphone and a wireless load generator attached
// to an 802.11g cell, the AP bridging to a wired switch, the measurement
// and load servers behind it, netem-style emulated path delay on the
// server port (the paper's `tc` command), and three promiscuous sniffers
// whose merged capture yields the network-level RTT dn.
package testbed

import (
	"time"

	"repro/internal/android"
	"repro/internal/driver"
	"repro/internal/energy"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/sniffer"
	"repro/internal/trace"
	"repro/internal/wired"
)

// Testbed addresses (the paper's RFC1918 lab layout).
var (
	PhoneIP      = packet.IP(192, 168, 1, 2)
	LoadGenIP    = packet.IP(192, 168, 1, 3)
	ServerIP     = packet.IP(10, 0, 0, 9)
	LoadServerIP = packet.IP(10, 0, 0, 10)
	// WarmupIP is the warm-up target: AcuteMon's TTL=1 packets die at
	// the gateway before ever reaching it, so no host listens there.
	WarmupIP = packet.IP(10, 0, 0, 11)
)

// Config parameterises a testbed instance.
type Config struct {
	Seed  int64
	Phone android.Profile
	// Runtime selects the phone's app runtime (AcuteMon uses native C).
	Runtime android.Runtime
	// DisablePSM pins the phone's radio in CAM.
	DisablePSM bool
	// DisableBusSleep applies the paper's driver modification.
	DisableBusSleep bool
	// BeaconMissProb: 0 keeps the calibrated default; negative = never.
	BeaconMissProb float64
	// EmulatedRTT is the tc-injected path delay (split half per
	// direction on the server port).
	EmulatedRTT time.Duration
	// SnifferLoss is each sniffer's frame-miss probability.
	SnifferLoss float64
	// TraceCap bounds the shared trace (0 = no tracing).
	TraceCap int
	// ModifyDriver edits the phone's driver configuration before
	// assembly (idletime/watchdog sweeps).
	ModifyDriver func(*driver.Config)
	// EnergyMetering attaches an energy.Meter to the phone's radio and
	// host bus (the §4.1 battery-cost evaluation).
	EnergyMetering bool
}

// DefaultConfig returns a Nexus 5 testbed with a 30 ms emulated path.
func DefaultConfig() Config {
	return Config{
		Seed:        1,
		Phone:       mustProfile("Google Nexus 5"),
		EmulatedRTT: 30 * time.Millisecond,
		SnifferLoss: 0.03,
	}
}

func mustProfile(name string) android.Profile {
	p, ok := android.ProfileByName(name)
	if !ok {
		panic("testbed: unknown profile " + name)
	}
	return p
}

// Testbed is the assembled rig.
type Testbed struct {
	Cfg Config

	Sim   *simtime.Sim
	Fac   *packet.Factory
	Med   *medium.Medium
	AP    *mac.AP
	Phone *android.Phone
	Wired *wired.Network

	Server     *server.Measurement
	LoadServer *server.LoadServer
	LoadGen    *server.LoadGen

	Sniffers []*sniffer.Sniffer
	Trace    *trace.Trace
	// Energy is non-nil when Config.EnergyMetering is set.
	Energy *energy.Meter
}

// energyTap charges the meter for the phone's share of every frame on
// the air.
type energyTap struct {
	tb *Testbed
}

// CaptureFrame implements medium.Tap.
func (e *energyTap) CaptureFrame(p *packet.Packet, airStart, airEnd time.Duration) {
	d11 := p.Dot11()
	if d11 == nil {
		return
	}
	airtime := airEnd - airStart
	switch {
	case d11.Addr2 == e.tb.Phone.MACAddr:
		e.tb.Energy.FrameTx(airtime)
	case d11.Addr1 == e.tb.Phone.MACAddr,
		d11.Addr1.IsBroadcast() && e.tb.Phone.STA.RadioOn():
		e.tb.Energy.FrameRx(airtime)
	}
}

// New assembles a testbed.
func New(cfg Config) *Testbed {
	if cfg.Phone.Model == "" {
		cfg.Phone = mustProfile("Google Nexus 5")
	}
	tb := &Testbed{Cfg: cfg}
	tb.Sim = simtime.New(cfg.Seed)
	tb.Fac = &packet.Factory{}
	if cfg.TraceCap > 0 {
		tb.Trace = trace.New(cfg.TraceCap)
	}

	// Radio cell.
	tb.Med = medium.New(tb.Sim, phy.Default80211g(), medium.DefaultOptions())
	apCfg := mac.DefaultAPConfig()
	tb.AP = mac.NewAP(tb.Sim, tb.Med, apCfg, tb.Fac, tb.Trace)

	// Three sniffers, placed within half a metre like the paper's.
	for _, name := range []string{"A", "B", "C"} {
		sn := sniffer.New(tb.Sim, name, cfg.SnifferLoss)
		tb.Sniffers = append(tb.Sniffers, sn)
		tb.Med.AttachTap(sn)
	}

	// The phone.
	tb.Phone = android.NewPhone(tb.Sim, cfg.Phone, tb.Med, tb.Fac, android.PhoneOptions{
		IP:             PhoneIP,
		MAC:            packet.MAC(1),
		AID:            1,
		BSSID:          apCfg.MAC,
		DisablePSM:     cfg.DisablePSM,
		BeaconMissProb: cfg.BeaconMissProb,
		Runtime:        cfg.Runtime,
		Trace:          tb.Trace,
		ModifyDriver:   cfg.ModifyDriver,
	})
	tb.Phone.STA.SetBeaconSchedule(tb.AP)
	tb.AP.Associate(packet.MAC(1), 1, PhoneIP)
	if cfg.DisableBusSleep {
		tb.Phone.Drv.SetBusSleepEnabled(false)
	}

	// Wired segment with the tc-emulated delay on the server port.
	tb.Wired = wired.New(tb.Sim, tb.Fac, wired.DefaultConfig())
	tb.AP.SetWiredOut(tb.Wired.FromWLAN)
	tb.Wired.SetWLAN(tb.AP.WiredDeliver, func(ip packet.IPv4Addr) bool {
		return ip[0] == 192 && ip[1] == 168 && ip[2] == 1
	})

	var half simtime.Dist
	if cfg.EmulatedRTT > 0 {
		half = simtime.Const(cfg.EmulatedRTT / 2)
	}
	tb.Server = server.NewMeasurement(tb.Sim, tb.Fac, ServerIP, tb.Trace)
	tb.Server.Connect(tb.Wired.AttachHost(tb.Server.Stack, half, half))

	tb.LoadServer = server.NewLoadServer(tb.Sim, tb.Fac, LoadServerIP, tb.Trace)
	tb.LoadServer.Connect(tb.Wired.AttachHost(tb.LoadServer.Stack, nil, nil))

	lgCfg := server.DefaultLoadGenConfig()
	lgCfg.IP = LoadGenIP
	lgCfg.MAC = packet.MAC(3)
	lgCfg.AID = 2
	lgCfg.BSSID = apCfg.MAC
	lgCfg.Target = LoadServerIP
	tb.LoadGen = server.NewLoadGen(tb.Sim, tb.Med, tb.Fac, lgCfg, tb.Trace)
	tb.LoadGen.STA.SetBeaconSchedule(tb.AP)
	tb.AP.Associate(packet.MAC(3), 2, LoadGenIP)

	// The phone runs tcpdump throughout (the dk vantage point).
	tb.Phone.Stack.BPF().Enable()

	if cfg.EnergyMetering {
		tb.Energy = energy.NewMeter(tb.Sim, energy.DefaultPowerModel())
		tb.Energy.Attach(tb.Phone.STA, tb.Phone.Drv.Bus())
		tb.Med.AttachTap(&energyTap{tb: tb})
	}

	return tb
}

// StartCrossTraffic launches the §4.3 iPerf load.
func (tb *Testbed) StartCrossTraffic() { tb.LoadGen.Start() }

// StopCrossTraffic halts it.
func (tb *Testbed) StopCrossTraffic() { tb.LoadGen.Stop() }

// MergedCapture unions the three sniffers into one time-ordered
// capture. Each call re-merges everything captured so far, so an
// analysis builds it once and passes it along.
func (tb *Testbed) MergedCapture() *sniffer.Merged {
	return sniffer.Merge(tb.Sniffers...)
}

// LayerRTTs carries one probe's RTT as seen below the app in the
// paper's Fig. 1 model: kernel/tcpdump (dk) and air (dn). The user
// RTT (du) is the app's own: its probe record holds it.
type LayerRTTs struct {
	Dk, Dn time.Duration
	DkOK   bool
	DnOK   bool
}

// DeltaKN is the kernel-phy overhead Δdk−n.
func (l LayerRTTs) DeltaKN() (time.Duration, bool) { return l.Dk - l.Dn, l.DkOK && l.DnOK }

// ExtractRTTs assembles the kernel and air RTTs of a request/response
// pair: dk from the phone's BPF tap, dn from m, the analysis's merged
// capture.
func (tb *Testbed) ExtractRTTs(m *sniffer.Merged, reqID, respID uint64) LayerRTTs {
	var out LayerRTTs
	bpf := tb.Phone.Stack.BPF()
	tok, ok1 := bpf.TimeOf(reqID)
	tik, ok2 := bpf.TimeOf(respID)
	if ok1 && ok2 && tik > tok {
		out.Dk = tik - tok
		out.DkOK = true
	}
	if dn, ok := m.RTT(reqID, respID); ok {
		out.Dn = dn
		out.DnOK = true
	}
	return out
}
