package android

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
)

func TestProfilesMatchTable1(t *testing.T) {
	profs := Profiles()
	if len(profs) != 5 {
		t.Fatalf("got %d profiles, want 5 (Table 1)", len(profs))
	}
	want := map[string]struct {
		chipset string
		tip     time.Duration
		assocLI int
	}{
		"Google Nexus 5": {"BCM4339", 205 * time.Millisecond, 10},
		"Google Nexus 4": {"WCN3660", 40 * time.Millisecond, 1},
		"HTC One":        {"WCN3680", 400 * time.Millisecond, 1},
		"Sony Xperia J":  {"BCM4330", 210 * time.Millisecond, 10},
		"Samsung Grand":  {"BCM4329", 45 * time.Millisecond, 10},
	}
	for _, p := range profs {
		w, ok := want[p.Model]
		if !ok {
			t.Errorf("unexpected profile %q", p.Model)
			continue
		}
		if p.Chipset != w.chipset {
			t.Errorf("%s chipset = %s, want %s", p.Model, p.Chipset, w.chipset)
		}
		if p.PSMTimeout != w.tip {
			t.Errorf("%s Tip = %v, want %v (Table 4)", p.Model, p.PSMTimeout, w.tip)
		}
		if p.AssocListenInterval != w.assocLI {
			t.Errorf("%s assoc listen = %d, want %d", p.Model, p.AssocListenInterval, w.assocLI)
		}
		if p.ActualListenInterval != 0 {
			t.Errorf("%s actual listen = %d, want 0 (Table 4)", p.Model, p.ActualListenInterval)
		}
		if p.DriverConfig == nil {
			t.Errorf("%s has no driver config", p.Model)
		}
	}
}

func TestBroadcomPhonesUseBcmdhd(t *testing.T) {
	for _, p := range Profiles() {
		cfg := p.DriverConfig()
		isBCM := p.Chipset[0] == 'B'
		if isBCM && cfg.Name != "bcmdhd" {
			t.Errorf("%s (%s) uses driver %s", p.Model, p.Chipset, cfg.Name)
		}
		if !isBCM && cfg.Name != "wcnss" {
			t.Errorf("%s (%s) uses driver %s", p.Model, p.Chipset, cfg.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"Google Nexus 5", "googlenexus5", "Google-Nexus-5"} {
		p, ok := ProfileByName(name)
		if !ok || p.Chipset != "BCM4339" {
			t.Errorf("ProfileByName(%q) failed", name)
		}
	}
	if _, ok := ProfileByName("iPhone"); ok {
		t.Error("found a profile for an unknown phone")
	}
}

func newPhoneBench(seed int64, prof Profile, opts PhoneOptions) (*simtime.Sim, *Phone, *mac.AP) {
	sim := simtime.New(seed)
	med := medium.New(sim, phy.Default80211g(), medium.DefaultOptions())
	fac := &packet.Factory{}
	apCfg := mac.DefaultAPConfig()
	apCfg.BeaconPhase = 0
	ap := mac.NewAP(sim, med, apCfg, fac, nil)
	if opts.IP == (packet.IPv4Addr{}) {
		opts.IP = packet.IP(192, 168, 1, 2)
	}
	if opts.MAC == (packet.MACAddr{}) {
		opts.MAC = packet.MAC(1)
	}
	opts.AID = 1
	opts.BSSID = apCfg.MAC
	ph := NewPhone(sim, prof, med, fac, opts)
	ph.STA.SetBeaconSchedule(ap)
	ap.Associate(opts.MAC, opts.AID, opts.IP, prof.AssocListenInterval)
	return sim, ph, ap
}

func TestPhoneAssemblyEndToEnd(t *testing.T) {
	sim, ph, ap := newPhoneBench(1, nexus5(), PhoneOptions{})
	// Wire the AP to a trivial echo "server" living on the wired side.
	ap.SetWiredOut(func(p *packet.Packet) {
		ic := p.ICMP()
		if ic == nil || !ic.IsEchoRequest() {
			return
		}
		reply := packet.New(
			&packet.IPv4{TTL: 63, Protocol: packet.ProtoICMP, Src: p.IPv4().Dst, Dst: p.IPv4().Src},
			&packet.ICMP{Type: packet.ICMPEchoReply, ID: ic.ID, Seq: ic.Seq},
		)
		sim.Post(5*time.Millisecond, func() { ap.WiredDeliver(reply) })
	})
	var rttAt time.Duration
	ph.Stack.OnICMP(9, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) { rttAt = at })
	start := sim.Now()
	ph.Stack.SendEcho(packet.IP(10, 0, 0, 9), 9, 1, 56)
	sim.RunUntil(500 * time.Millisecond)
	if rttAt == 0 {
		t.Fatal("no echo reply made it through the full phone stack")
	}
	rtt := rttAt - start
	// 5ms emulated path + driver/bus/MAC costs: a few ms on top.
	if rtt < 5*time.Millisecond || rtt > 25*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestAppOverheadNativeVsDalvik(t *testing.T) {
	measure := func(r Runtime) time.Duration {
		sim, ph, _ := newPhoneBench(2, nexus5(), PhoneOptions{Runtime: r})
		var total time.Duration
		const n = 200
		done := 0
		var step func()
		step = func() {
			start := sim.Now()
			ph.AppDo(func() {
				total += sim.Now() - start
				done++
				if done < n {
					step()
				}
			})
		}
		step()
		sim.RunUntil(time.Hour)
		if done != n {
			t.Fatalf("ran %d overhead samples", done)
		}
		return total / n
	}
	nat := measure(NativeC)
	dvm := measure(DalvikVM)
	if nat >= 200*time.Microsecond {
		t.Errorf("native overhead = %v, want tens of µs", nat)
	}
	if dvm <= 2*nat {
		t.Errorf("dalvik (%v) should far exceed native (%v)", dvm, nat)
	}
}

func TestCPUFactorSlowsOldPhones(t *testing.T) {
	x := xperiaJ()
	n5 := nexus5()
	if x.CPUFactor <= n5.CPUFactor {
		t.Fatal("Xperia J should be slower than Nexus 5")
	}
}

func TestDisablePSM(t *testing.T) {
	sim, ph, _ := newPhoneBench(3, nexus4(), PhoneOptions{DisablePSM: true})
	sim.RunUntil(2 * time.Second)
	if ph.STA.Stats.Dozes != 0 {
		t.Fatal("PSM-disabled phone dozed")
	}
}

func TestPSMEnabledByDefault(t *testing.T) {
	sim, ph, _ := newPhoneBench(4, nexus4(), PhoneOptions{})
	sim.RunUntil(2 * time.Second)
	if ph.STA.Stats.Dozes == 0 {
		t.Fatal("phone with Tip=40ms never dozed in 2s of idleness")
	}
}

func TestPSMJitterCapped(t *testing.T) {
	if j := psmJitter(400 * time.Millisecond); j != 15*time.Millisecond {
		t.Errorf("jitter(400ms) = %v, want capped at 15ms", j)
	}
	if j := psmJitter(40 * time.Millisecond); j != 14*time.Millisecond {
		t.Errorf("jitter(40ms) = %v, want 14ms", j)
	}
}

func TestSetRuntimeSwitches(t *testing.T) {
	_, ph, _ := newPhoneBench(5, nexus5(), PhoneOptions{})
	if ph.Runtime() != NativeC {
		t.Fatalf("default runtime = %v", ph.Runtime())
	}
	ph.SetRuntime(DalvikVM)
	if ph.Runtime() != DalvikVM {
		t.Fatal("SetRuntime failed")
	}
}
