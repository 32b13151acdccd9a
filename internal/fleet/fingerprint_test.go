package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/puncture"
	"repro/internal/session"
	"repro/internal/testbed"
)

// producerFingerprints pin the simulated producer's output bit for bit:
// a seeded single-worker campaign report (wall clock zeroed) plus the
// calibrations its pre-pass trained, per method, and sniffer A's pcap
// bytes for one session. A performance change to the simulator or the
// capture analysis must leave every hash alone.
//
// After an intended model change, regenerate the constants with
//
//	go test -run TestProducerFingerprint -v ./internal/fleet
//
// and paste the "got" hashes the failures print.
var producerFingerprints = map[string]string{
	"acutemon": "ecc3d90469634ce36864716dd6db88e35f92ba4eb8e11ffb30e06de7d03403f9",
	"ping":     "a6bea714f9fea8bcb9f6e4d9073d5ae783993731b29ccffc43547d291d4229d8",
	"httping":  "2709970d42cc903fedd34279f2f07c4ad08f0fa47b5b05ab612fccb349976ef7",
	"javaping": "0cff4e730f9e6fa3c85f9d84aa5d8ef659858400b3292360fecae9ed5e2b3cb7",
	"ping2":    "00de4a769e2cdad424dd492705ceef93dd275a4aea2d9a8e30922b5408e3dcb6",
	"pcap":     "230f0487b0074f5da9e8fefb231c387ee4b02cf9f562c91e481c13962b89c00d",
}

func fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkFingerprint(t *testing.T, key string, b []byte) {
	t.Helper()
	if got, want := fingerprint(b), producerFingerprints[key]; got != want {
		t.Errorf("%s: producer fingerprint changed:\n got %s\nwant %s\n"+
			"simulated output must stay bit-identical under a performance change; "+
			"after an intended model change, run `go test -run TestProducerFingerprint -v ./internal/fleet` "+
			"and replace producerFingerprints[%q] with the got hash", key, got, want, key)
	}
}

// TestProducerFingerprint runs a seeded, auto-calibrated campaign on one
// worker for each method (a multi-worker fold order changes the last
// float digits of the means) and one sim session's sniffer-A capture,
// and compares their hashes with the pinned constants.
func TestProducerFingerprint(t *testing.T) {
	sc, _ := ScenarioByName("device-mix")
	for _, method := range []string{"acutemon", "ping", "httping", "javaping", "ping2"} {
		method := method
		t.Run(method, func(t *testing.T) {
			sessions := sc.Build(Params{Sessions: 20, Seed: 7, Probes: 20})
			for i := range sessions {
				sessions[i].Method = method
				sessions[i].CrossTraffic = i%10 == 9
			}
			st := puncture.NewStore(4)
			rep, err := RunContext(context.Background(), Campaign{
				Name:          "fingerprint",
				Scenario:      "device-mix",
				Seed:          7,
				Workers:       1,
				Sessions:      sessions,
				Profiles:      st,
				AutoCalibrate: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors != 0 {
				t.Fatalf("errors: %v", rep.FirstErrors)
			}
			rep.Wall = 0
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(st.Calibrations()); err != nil {
				t.Fatal(err)
			}
			checkFingerprint(t, method, buf.Bytes())
		})
	}
	t.Run("pcap", func(t *testing.T) {
		cfg := testbed.DefaultConfig()
		cfg.Seed = 11
		tb := testbed.New(cfg)
		tb.StartCrossTraffic()
		tb.Sim.RunUntil(session.DefaultSettle)
		res, err := session.Run(context.Background(), session.Spec{
			Backend: "sim", Method: "acutemon", K: 30, Testbed: tb,
			Interval: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sample()) == 0 {
			t.Fatal("session measured nothing")
		}
		var buf bytes.Buffer
		if err := tb.Sniffers[0].WritePcap(&buf); err != nil {
			t.Fatal(err)
		}
		checkFingerprint(t, "pcap", buf.Bytes())
	})
}
