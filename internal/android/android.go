// Package android assembles a simulated smartphone out of the substrate
// layers — app runtime, kernel stack, WNIC driver with bus power
// management, and the 802.11 STA MAC — and ships the five device
// profiles of the paper's Table 1, with the PSM parameters measured in
// Table 4 and the bus/driver behaviour of §3.2.
package android

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/kernel"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Runtime selects the app execution environment. The paper shows
// (building on [23]) that Dalvik adds user-kernel overhead that a
// pre-compiled native C binary avoids — AcuteMon's measurement thread is
// native for exactly this reason.
type Runtime int

// Runtimes.
const (
	NativeC Runtime = iota
	DalvikVM
)

// String implements fmt.Stringer.
func (r Runtime) String() string {
	if r == NativeC {
		return "native-c"
	}
	return "dalvik"
}

// Profile describes one smartphone model (Table 1 + Table 4).
type Profile struct {
	Model      string
	AndroidVer string
	CPUGHz     float64
	Cores      int
	RAMMB      int
	Chipset    string

	// DriverConfig returns the WNIC driver model for this chipset.
	DriverConfig func() driver.Config

	// PSMTimeout is Tip from Table 4.
	PSMTimeout time.Duration
	// AssocListenInterval is the listen interval announced at
	// association (1 for wcnss, 10 for bcmdhd); ActualListenInterval is
	// what the firmware actually uses (0 ⇒ every beacon).
	AssocListenInterval  int
	ActualListenInterval int

	// CPUFactor derates software latencies for slower SoCs.
	CPUFactor float64

	// PingIntegerAbove reproduces the Android ping quirk of §3.1: RTTs
	// above this threshold are reported in whole milliseconds, which is
	// how Fig 3 ends up with negative user-kernel overheads.
	PingIntegerAbove time.Duration
}

// The five testbed phones.
func nexus5() Profile {
	return Profile{
		Model: "Google Nexus 5", AndroidVer: "4.4.2", CPUGHz: 2.26, Cores: 4, RAMMB: 2048,
		Chipset: "BCM4339", DriverConfig: driver.Bcmdhd,
		PSMTimeout: 205 * time.Millisecond, AssocListenInterval: 10, ActualListenInterval: 0,
		CPUFactor: 1.0, PingIntegerAbove: 100 * time.Millisecond,
	}
}

func nexus4() Profile {
	return Profile{
		Model: "Google Nexus 4", AndroidVer: "4.4.4", CPUGHz: 1.5, Cores: 4, RAMMB: 2048,
		Chipset: "WCN3660", DriverConfig: driver.Wcnss,
		PSMTimeout: 40 * time.Millisecond, AssocListenInterval: 1, ActualListenInterval: 0,
		CPUFactor: 1.2, PingIntegerAbove: 100 * time.Millisecond,
	}
}

func htcOne() Profile {
	return Profile{
		Model: "HTC One", AndroidVer: "4.2.2", CPUGHz: 1.7, Cores: 4, RAMMB: 2048,
		Chipset: "WCN3680", DriverConfig: driver.Wcnss,
		PSMTimeout: 400 * time.Millisecond, AssocListenInterval: 1, ActualListenInterval: 0,
		CPUFactor: 1.15, PingIntegerAbove: 100 * time.Millisecond,
	}
}

func xperiaJ() Profile {
	return Profile{
		Model: "Sony Xperia J", AndroidVer: "4.0.4", CPUGHz: 1.0, Cores: 1, RAMMB: 512,
		Chipset: "BCM4330", DriverConfig: driver.Bcmdhd,
		PSMTimeout: 210 * time.Millisecond, AssocListenInterval: 10, ActualListenInterval: 0,
		CPUFactor: 2.3, PingIntegerAbove: 100 * time.Millisecond,
	}
}

func samsungGrand() Profile {
	return Profile{
		Model: "Samsung Grand", AndroidVer: "4.1.2", CPUGHz: 1.2, Cores: 2, RAMMB: 1024,
		Chipset: "BCM4329", DriverConfig: driver.Bcmdhd,
		PSMTimeout: 45 * time.Millisecond, AssocListenInterval: 10, ActualListenInterval: 0,
		CPUFactor: 1.8, PingIntegerAbove: 100 * time.Millisecond,
	}
}

// ProfileByName looks up a phone profile; it accepts the full model
// name or any unambiguous suffix ("Google Nexus 5", "Nexus 5",
// "nexus5").
func ProfileByName(name string) (Profile, bool) {
	want := shortName(name)
	if want == "" {
		return Profile{}, false
	}
	for _, p := range Profiles() {
		if p.Model == name || shortName(p.Model) == want {
			return p, true
		}
	}
	for _, p := range Profiles() {
		if strings.HasSuffix(shortName(p.Model), want) {
			return p, true
		}
	}
	return Profile{}, false
}

func shortName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == ' ' || r == '-' || r == '_':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// Profiles returns the five phones in the paper's Table 1 order.
func Profiles() []Profile {
	return []Profile{nexus5(), nexus4(), htcOne(), xperiaJ(), samsungGrand()}
}

// psmJitter derives the effective-Tip jitter: firmware timers are
// tick-quantised, so the effective timeout wobbles around the nominal
// value. Capped so large timeouts (HTC One's 400 ms) stay sane.
func psmJitter(tip time.Duration) time.Duration {
	j := time.Duration(float64(tip) * 0.35)
	if j > 15*time.Millisecond {
		j = 15 * time.Millisecond
	}
	return j
}

// runtimeOverhead returns the user-space cost distribution per
// operation for the given runtime, before CPU derating.
func runtimeOverhead(r Runtime) simtime.Dist {
	switch r {
	case NativeC:
		// A pre-compiled C binary: tens of microseconds.
		return simtime.Uniform{Lo: 10 * time.Microsecond, Hi: 60 * time.Microsecond}
	default:
		// Dalvik: a few hundred µs typical, with occasional multi-ms
		// GC/JIT stalls — the heavy tail in Fig 8's Java ping curve.
		return simtime.Mixture{
			Weights: []float64{0.96, 0.04},
			Parts: []simtime.Dist{
				simtime.Uniform{Lo: 150 * time.Microsecond, Hi: 700 * time.Microsecond},
				simtime.Uniform{Lo: 2 * time.Millisecond, Hi: 12 * time.Millisecond},
			},
		}
	}
}

// Phone is an assembled simulated smartphone attached to a medium.
type Phone struct {
	Profile Profile
	IPAddr  packet.IPv4Addr
	MACAddr packet.MACAddr

	Drv   *driver.Driver
	STA   *mac.STA
	Stack *kernel.Stack

	sim *simtime.Sim

	runtime Runtime
	// overheads is each runtime's overhead model (NativeC, DalvikVM),
	// scaled by the profile's CPU factor once, at assembly.
	overheads [2]simtime.Dist
}

// PhoneOptions configures phone assembly.
type PhoneOptions struct {
	IP    packet.IPv4Addr
	MAC   packet.MACAddr
	AID   uint16
	BSSID packet.MACAddr
	// PSMEnabled defaults to true (set DisablePSM to turn it off).
	DisablePSM bool
	// BeaconMissProb overrides the default TIM-miss probability (0.17,
	// calibrated to Table 2's Nexus 4 / 60 ms row). Zero keeps the
	// default; pass a negative value for "never miss".
	BeaconMissProb float64
	Runtime        Runtime
	Trace          *trace.Trace
	// ModifyDriver, when set, edits the driver configuration before
	// assembly (experiments use it to sweep idletime, §3.2.1).
	ModifyDriver func(*driver.Config)
}

// NewPhone builds a phone from a profile and attaches it to the medium.
// The caller still needs to associate it with the AP and hand it the
// beacon schedule (testbed.New does both).
func NewPhone(sim *simtime.Sim, prof Profile, med *medium.Medium, fac *packet.Factory, opts PhoneOptions) *Phone {
	switch {
	case opts.BeaconMissProb == 0:
		opts.BeaconMissProb = 0.17
	case opts.BeaconMissProb < 0:
		opts.BeaconMissProb = 0
	}
	drvCfg := prof.DriverConfig()
	if opts.ModifyDriver != nil {
		opts.ModifyDriver(&drvCfg)
	}
	drv := driver.New(sim, drvCfg, opts.Trace)

	staCfg := mac.STAConfig{
		MAC:              opts.MAC,
		BSSID:            opts.BSSID,
		AID:              opts.AID,
		PSMEnabled:       !opts.DisablePSM,
		PSMTimeout:       prof.PSMTimeout,
		PSMTimeoutJitter: psmJitter(prof.PSMTimeout),
		ListenInterval:   listenEvery(prof.ActualListenInterval),
		BeaconMissProb:   opts.BeaconMissProb,
		BeaconGuard:      time.Millisecond,
	}
	sta := mac.NewSTA(sim, med, staCfg, fac, opts.Trace, drv.HandleFrameFromMAC)
	drv.SetSTA(sta)

	kcfg := kernel.PhoneConfig(opts.IP)
	kcfg.SendLatency = simtime.Scaled{D: kcfg.SendLatency, Factor: prof.CPUFactor}
	kcfg.RecvLatency = simtime.Scaled{D: kcfg.RecvLatency, Factor: prof.CPUFactor}
	stack := kernel.New(sim, kcfg, kernel.DeviceFunc(func(p *packet.Packet) {
		drv.Send(p, nil)
	}), fac, opts.Trace)
	drv.SetRecvUp(stack.DeliverFromDevice)

	return &Phone{
		Profile: prof,
		IPAddr:  opts.IP,
		MACAddr: opts.MAC,
		Drv:     drv,
		STA:     sta,
		Stack:   stack,
		sim:     sim,
		runtime: opts.Runtime,
		overheads: [2]simtime.Dist{
			simtime.Scaled{D: runtimeOverhead(NativeC), Factor: prof.CPUFactor},
			simtime.Scaled{D: runtimeOverhead(DalvikVM), Factor: prof.CPUFactor},
		},
	}
}

// listenEvery converts the wire-format listen interval (0 ⇒ every
// beacon) into a wake cadence.
func listenEvery(wire int) int {
	if wire <= 0 {
		return 1
	}
	return wire
}

// Runtime returns the phone's app runtime.
func (p *Phone) Runtime() Runtime { return p.runtime }

// SetRuntime switches the app runtime (native C vs Dalvik), and with
// it the overhead model.
func (p *Phone) SetRuntime(r Runtime) { p.runtime = r }

// overhead returns runtime r's overhead model.
func (p *Phone) overhead(r Runtime) simtime.Dist {
	if r == NativeC {
		return p.overheads[0]
	}
	return p.overheads[1]
}

// AppDo runs fn after one user-space runtime overhead sample; tools use
// it to model the path from "app decides to send" to the send syscall.
func (p *Phone) AppDo(fn func()) { p.AppDoAs(p.runtime, fn) }

// AppDeliver runs fn after one runtime overhead sample, modelling the
// path from socket readiness to the app observing the data.
func (p *Phone) AppDeliver(fn func()) { p.AppDoAs(p.runtime, fn) }

// AppDoAs is AppDo with an explicit runtime, letting a Dalvik tool (Java
// ping) and a native tool (ping, AcuteMon's MT) coexist on one phone.
func (p *Phone) AppDoAs(r Runtime, fn func()) {
	p.sim.Post(p.overhead(r).Sample(p.sim), fn)
}

// String implements fmt.Stringer.
func (p *Phone) String() string {
	return fmt.Sprintf("%s (%s, %s)", p.Profile.Model, p.Profile.Chipset, p.runtime)
}
