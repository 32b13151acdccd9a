package session

import (
	"fmt"

	"repro/internal/android"
	"repro/internal/cellular"
	"repro/internal/testbed"
)

func init() {
	RegisterBackend(simBackend{})
	RegisterBackend(liveBackend{})
	RegisterBackend(cellularBackend{})
}

// SimEnv is the simulated WiFi environment: the paper's Fig 2 rig with
// phone, AP, sniffers, and wired servers. Methods run against TB and
// may use its capture for per-layer attribution.
type SimEnv struct {
	TB *testbed.Testbed
}

// BackendName implements Env.
func (e *SimEnv) BackendName() string { return "sim" }

// Close implements Env. Simulated rigs are garbage; nothing to release.
func (e *SimEnv) Close() {}

type simBackend struct{}

func (simBackend) Name() string { return "sim" }
func (simBackend) Description() string {
	return "simulated Fig 2 WiFi testbed (phone, AP, sniffers, emulated path)"
}

func (simBackend) NewEnv(spec *Spec) (Env, error) {
	if spec.Testbed != nil {
		return &SimEnv{TB: spec.Testbed}, nil
	}
	prof, ok := android.ProfileByName(spec.Phone)
	if !ok {
		return nil, fmt.Errorf("unknown phone model %q", spec.Phone)
	}
	if spec.PSMTimeout > 0 {
		prof.PSMTimeout = spec.PSMTimeout
	}
	cfg := testbed.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Phone = prof
	cfg.EmulatedRTT = spec.EmulatedRTT
	cfg.DisablePSM = spec.DisablePSM
	cfg.DisableBusSleep = spec.DisableBusSleep
	tb := testbed.New(cfg)
	if spec.CrossTraffic {
		tb.StartCrossTraffic()
	}
	// Let the idle phone settle (and doze) before measuring, as a real
	// pocket phone would.
	tb.Sim.RunUntil(spec.Settle)
	return &SimEnv{TB: tb}, nil
}

// LiveEnv is the real-socket environment: methods dial Target over the
// actual network. No sniffers exist here, so results carry no Layers.
type LiveEnv struct {
	// Target is the measurement server, "host:port".
	Target string
	// WarmupAddr receives TTL-limited background datagrams ("" lets
	// the scheme derive it from Target).
	WarmupAddr string
}

// BackendName implements Env.
func (e *LiveEnv) BackendName() string { return "live" }

// Close implements Env. Live resources (sockets, background threads)
// are owned by the method run itself and released before it returns.
func (e *LiveEnv) Close() {}

type liveBackend struct{}

func (liveBackend) Name() string { return "live" }
func (liveBackend) Description() string {
	return "real sockets against an actual network target (deployable counterpart of sim)"
}

func (liveBackend) NewEnv(spec *Spec) (Env, error) {
	if spec.Target == "" {
		return nil, fmt.Errorf("Spec.Target required (measurement server host:port)")
	}
	return &LiveEnv{Target: spec.Target, WarmupAddr: spec.WarmupAddr}, nil
}

// CellularEnv is the cellular analogue of the WiFi rig: a phone stack
// behind a three-state RRC modem and an operator core network.
type CellularEnv struct {
	TB *cellular.Testbed
}

// BackendName implements Env.
func (e *CellularEnv) BackendName() string { return "cellular" }

// Close implements Env.
func (e *CellularEnv) Close() {}

type cellularBackend struct{}

func (cellularBackend) Name() string { return "cellular" }
func (cellularBackend) Description() string {
	return "simulated cellular RRC testbed (umts/lte modem behind an operator core)"
}

func (cellularBackend) NewEnv(spec *Spec) (Env, error) {
	var radio cellular.Config
	switch spec.Radio {
	case "umts":
		radio = cellular.UMTS()
	case "lte":
		radio = cellular.LTE()
	default:
		return nil, fmt.Errorf("unknown radio %q (want umts|lte)", spec.Radio)
	}
	tb := cellular.NewTestbed(cellular.TestbedConfig{
		Seed:    spec.Seed,
		Radio:   radio,
		CoreRTT: spec.EmulatedRTT,
	})
	// Mirror the sim backend: idle first so the modem demotes toward
	// IDLE the way a pocketed phone's would. Demotion timers are
	// seconds-scale, so the default 300 ms settle leaves the modem in
	// DCH; specs probing the promotion cost idle past T1/T2.
	tb.Sim.RunFor(spec.Settle)
	return &CellularEnv{TB: tb}, nil
}
