package tools

import (
	"time"

	"repro/internal/android"
	"repro/internal/packet"
	"repro/internal/testbed"
)

// MobiPerf's three measurement methods (§4.3): (1) invoking the ping
// program — covered by Ping; (2) InetAddress — covered by JavaPing;
// (3) HttpURLConnection — this file. The paper notes methods 2 and 3
// are "very similar, both of which utilize TCP control messages
// (SYN/RST vs SYN/SYN ACK)": HttpURLConnection's latency sample is the
// TCP connect time to the HTTP port, measured from the Dalvik runtime.

// JavaHTTPPingOptions configures the HttpURLConnection-style prober.
type JavaHTTPPingOptions struct {
	Count    int
	Interval time.Duration
	Timeout  time.Duration
}

func (o *JavaHTTPPingOptions) fill() {
	if o.Count <= 0 {
		o.Count = 100
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
}

// JavaHTTPPing reimplements MobiPerf's third method: a Dalvik app
// opening an HttpURLConnection per probe and timing the connection
// establishment (SYN → SYN/ACK), then closing it.
func JavaHTTPPing(tb *testbed.Testbed, opts JavaHTTPPingOptions) *Result {
	opts.fill()
	res := &Result{Tool: "java-http-ping", Records: make([]ProbeRecord, opts.Count)}
	phone := tb.Phone

	for i := 0; i < opts.Count; i++ {
		i := i
		tb.Sim.Post(time.Duration(i)*opts.Interval, func() {
			rec := &res.Records[i]
			rec.Seq = i
			rec.SentAt = tb.Sim.Now()
			res.Sent++
			phone.AppDoAs(android.DalvikVM, func() {
				conn := phone.Stack.Dial(testbed.ServerIP, 80)
				rec.ReqID = conn.SynPacket.ID
				conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
					phone.AppDoAs(android.DalvikVM, func() {
						if rec.OK {
							return
						}
						rec.RecvAt = tb.Sim.Now()
						rec.RespID = synAck.ID
						rec.RTT = rec.RecvAt - rec.SentAt
						rec.OK = true
					})
					conn.Close()
				}
			})
		})
	}

	deadline := time.Duration(opts.Count)*opts.Interval + opts.Timeout
	tb.Sim.Post(deadline, func() {
		for i := range res.Records {
			if !res.Records[i].OK {
				res.Lost++
			}
		}
	})
	tb.Sim.RunFor(deadline + time.Millisecond)
	return res
}
