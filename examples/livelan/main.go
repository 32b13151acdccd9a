// livelan runs the AcuteMon probing scheme over real sockets on the
// loopback interface: it starts the measurement target, then measures it
// with all three live probe types.
package main

import (
	"context"
	"fmt"
	"time"

	acutemon "repro"
	"repro/internal/live"
)

func main() {
	srv, err := acutemon.StartLiveServers("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	fmt.Printf("measurement target on %s\n\n", srv.Addr())

	for _, probe := range []live.ProbeType{live.ProbeTCPConnect, live.ProbeHTTPGet, live.ProbeUDPEcho} {
		res, err := acutemon.Run(context.Background(), acutemon.SessionSpec{
			Backend:            "live",
			Method:             "acutemon",
			Target:             srv.Addr(),
			WarmupAddr:         srv.Addr(),
			Probe:              probe.String(),
			K:                  20,
			WarmupDelay:        20 * time.Millisecond,
			BackgroundInterval: 20 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		s := res.Sample()
		fmt.Printf("%-12s median=%8v  p90=%8v  lost=%d  bg=%d (ttl-limited=%v)\n",
			probe, s.Median().Round(time.Microsecond),
			s.Percentile(90).Round(time.Microsecond),
			res.Lost, res.BackgroundSent, res.TTLLimited)
	}
}
