// Package tools implements the measurement tools the paper compares in
// §4.3 — ICMP ping (with Android's integer-truncation quirk), httping,
// and MobiPerf-style Java ping — plus the ping2 server-side baseline of
// Sui et al. discussed in the related work. All of them run against a
// testbed.Testbed; AcuteMon itself lives in internal/core.
package tools

import (
	"time"

	"repro/internal/android"
	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// ProbeRecord is one probe outcome at user level.
type ProbeRecord struct {
	Seq    int
	SentAt time.Duration // tou
	RecvAt time.Duration // tiu
	ReqID  uint64
	RespID uint64
	// RTT is the value the tool reports (quirks included).
	RTT time.Duration
	OK  bool
}

// Result aggregates a tool run.
type Result struct {
	Tool    string
	Records []ProbeRecord
	Sent    int
	Lost    int
}

// Sample returns the reported RTTs of successful probes.
func (r Result) Sample() stats.Sample {
	var out stats.Sample
	for _, rec := range r.Records {
		if rec.OK {
			out = append(out, rec.RTT)
		}
	}
	return out
}

// pingPayload is the ICMP payload ping sends: 56 bytes, like ping.
const pingPayload = 56

// PingOptions configures an ICMP ping run.
type PingOptions struct {
	Count int
	// Interval is the packet sending interval (§3.1 contrasts 10 ms with
	// the 1 s default).
	Interval time.Duration
	// Timeout abandons a probe.
	Timeout time.Duration
	// ID is the ICMP identifier (a default is chosen when 0).
	ID uint16
}

func (o *PingOptions) fill() {
	if o.Count <= 0 {
		o.Count = 100
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.ID == 0 {
		o.ID = 0xBEEF
	}
}

// reportPingRTT applies the Android ping formatting quirk: RTTs above
// the profile threshold are truncated to whole milliseconds (§3.1 notes
// this can make the reported value smaller than the tcpdump one).
func reportPingRTT(prof android.Profile, raw time.Duration) time.Duration {
	if prof.PingIntegerAbove > 0 && raw > prof.PingIntegerAbove {
		return raw.Truncate(time.Millisecond)
	}
	// Normal resolution: ping prints hundredths of a millisecond.
	return raw.Truncate(10 * time.Microsecond)
}

// Ping runs the stock ICMP ping (a native binary invoked over adb, as in
// §3.1) against the measurement server. The returned Result is complete
// once the testbed's event loop has drained past the run.
func Ping(tb *testbed.Testbed, opts PingOptions) *Result {
	res, deadline := pingStart(tb, opts)
	tb.Sim.RunFor(deadline + time.Millisecond)
	return res
}

// pingStart schedules the whole run (sends, reply handler, final tally)
// without driving the simulation, returning the result shell and the
// relative deadline the driver must reach. The split lets the session
// method drive the same schedule under a cancellable context while Ping
// keeps its drain-to-completion behavior bit-for-bit.
func pingStart(tb *testbed.Testbed, opts PingOptions) (*Result, time.Duration) {
	opts.fill()
	res := &Result{Tool: "ping", Records: make([]ProbeRecord, opts.Count)}
	phone := tb.Phone

	phone.Stack.OnICMP(opts.ID, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) {
		i := int(ic.Seq)
		if i >= len(res.Records) || res.Records[i].OK {
			return
		}
		rec := &res.Records[i]
		// The reply surfaces to the (native) ping process.
		phone.AppDoAs(android.NativeC, func() {
			rec.RecvAt = tb.Sim.Now()
			rec.RespID = p.ID
			rec.RTT = reportPingRTT(phone.Profile, rec.RecvAt-rec.SentAt)
			rec.OK = true
		})
	})

	for i := 0; i < opts.Count; i++ {
		i := i
		tb.Sim.Post(time.Duration(i)*opts.Interval, func() {
			rec := &res.Records[i]
			rec.Seq = i
			rec.SentAt = tb.Sim.Now() // gettimeofday before sendto
			res.Sent++
			phone.AppDoAs(android.NativeC, func() {
				req := phone.Stack.SendEcho(testbed.ServerIP, opts.ID, uint16(i), pingPayload)
				rec.ReqID = req.ID
			})
		})
	}

	// Let the run and stragglers complete, then tally losses.
	deadline := time.Duration(opts.Count)*opts.Interval + opts.Timeout
	tb.Sim.Post(deadline, func() {
		phone.Stack.CloseICMP(opts.ID)
		for i := range res.Records {
			if !res.Records[i].OK {
				res.Lost++
			}
		}
	})
	return res, deadline
}

// HTTPingOptions configures an httping run.
type HTTPingOptions struct {
	Count    int
	Interval time.Duration
	Timeout  time.Duration
	// ConnectOnly mirrors httping's -r flag: time only the TCP connect
	// (a fresh connection per probe) instead of GETs on a persistent
	// connection.
	ConnectOnly bool
}

func (o *HTTPingOptions) fill() {
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

// HTTPing cross-compiles to a native binary (as the authors did) and
// issues an HTTP GET per probe over a persistent connection, reporting
// the request→first-response time. With ConnectOnly it instead times a
// fresh TCP connect per probe (httping -r).
func HTTPing(tb *testbed.Testbed, opts HTTPingOptions) *Result {
	res, deadline := httpingStart(tb, opts)
	tb.Sim.RunFor(deadline + time.Millisecond)
	return res
}

// httpingStart schedules an httping run without driving the simulation
// (see pingStart).
func httpingStart(tb *testbed.Testbed, opts HTTPingOptions) (*Result, time.Duration) {
	opts.fill()
	if opts.ConnectOnly {
		return httpingConnectOnlyStart(tb, opts)
	}
	res := &Result{Tool: "httping", Records: make([]ProbeRecord, opts.Count)}
	phone := tb.Phone

	conn := phone.Stack.Dial(testbed.ServerIP, 80)
	probe := func(i int) {
		if i >= opts.Count {
			return
		}
		rec := &res.Records[i]
		rec.Seq = i
		rec.SentAt = tb.Sim.Now()
		res.Sent++
		phone.AppDoAs(android.NativeC, func() {
			req := conn.Send([]byte("GET / HTTP/1.1\r\nHost: m\r\n\r\n"))
			if req != nil {
				rec.ReqID = req.ID
			}
		})
	}
	cur := 0
	conn.OnData = func(payload []byte, at time.Duration, p *packet.Packet) {
		if cur >= opts.Count || res.Records[cur].OK {
			return
		}
		rec := &res.Records[cur]
		phone.AppDoAs(android.NativeC, func() {
			rec.RecvAt = tb.Sim.Now()
			rec.RespID = p.ID
			rec.RTT = rec.RecvAt - rec.SentAt
			rec.OK = true
		})
	}
	conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
		// Probe i fires at connect + i*interval.
		for i := 0; i < opts.Count; i++ {
			i := i
			tb.Sim.Post(time.Duration(i)*opts.Interval, func() {
				cur = i
				probe(i)
			})
		}
	}

	deadline := time.Duration(opts.Count+1)*opts.Interval + opts.Timeout
	tb.Sim.Post(deadline, func() {
		conn.Close()
		for i := range res.Records {
			if !res.Records[i].OK {
				res.Lost++
			}
		}
	})
	return res, deadline
}

// JavaPingOptions configures the MobiPerf-style Java ping.
type JavaPingOptions struct {
	Count    int
	Interval time.Duration
	Timeout  time.Duration
}

func (o *JavaPingOptions) fill() {
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

// JavaPing reimplements MobiPerf's second method (§4.3): a Dalvik app
// using InetAddress-style reachability, i.e. a TCP SYN to a closed port
// timed until the RST comes back — with the DVM runtime overhead on both
// ends of each probe.
func JavaPing(tb *testbed.Testbed, opts JavaPingOptions) *Result {
	res, deadline := javaPingStart(tb, opts)
	tb.Sim.RunFor(deadline + time.Millisecond)
	return res
}

// javaPingStart schedules a Java-ping run without driving the
// simulation (see pingStart).
func javaPingStart(tb *testbed.Testbed, opts JavaPingOptions) (*Result, time.Duration) {
	opts.fill()
	res := &Result{Tool: "java-ping", Records: make([]ProbeRecord, opts.Count)}
	phone := tb.Phone
	// Port 7 runs a UDP echo on the measurement server; TCP 7 is closed,
	// so a SYN draws an immediate RST, like InetAddress.isReachable.
	const closedPort = 7

	for i := 0; i < opts.Count; i++ {
		i := i
		tb.Sim.Post(time.Duration(i)*opts.Interval, func() {
			rec := &res.Records[i]
			rec.Seq = i
			rec.SentAt = tb.Sim.Now() // System.nanoTime() before connect
			res.Sent++
			phone.AppDoAs(android.DalvikVM, func() {
				conn := phone.Stack.Dial(testbed.ServerIP, closedPort)
				rec.ReqID = conn.SynPacket.ID
				conn.OnReset = func(at time.Duration, rst *packet.Packet) {
					phone.AppDoAs(android.DalvikVM, func() {
						if rec.OK {
							return
						}
						rec.RecvAt = tb.Sim.Now()
						rec.RespID = rst.ID
						rec.RTT = rec.RecvAt - rec.SentAt
						rec.OK = true
					})
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
	return res, deadline
}

// Ping2Options configures the ping2 baseline.
type Ping2Options struct {
	Rounds int
	// Gap separates measurement rounds.
	Gap     time.Duration
	Timeout time.Duration
}

func (o *Ping2Options) fill() {
	if o.Rounds <= 0 {
		o.Rounds = 100
	}
	if o.Gap <= 0 {
		o.Gap = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
}

// Ping2 implements the server-side double-ping of Sui et al. [34]: the
// measurement server pings the phone once to wake it, then immediately
// pings again and reports the second RTT. The paper argues this fails
// for long paths — the phone falls back asleep before the second probe
// lands — and the A1 ablation reproduces exactly that.
func Ping2(tb *testbed.Testbed, opts Ping2Options) *Result {
	res, deadline := ping2Start(tb, opts)
	tb.Sim.RunFor(deadline + time.Millisecond)
	return res
}

// ping2Start schedules a ping2 run without driving the simulation (see
// pingStart).
func ping2Start(tb *testbed.Testbed, opts Ping2Options) (*Result, time.Duration) {
	opts.fill()
	res := &Result{Tool: "ping2", Records: make([]ProbeRecord, opts.Rounds)}
	srv := tb.Server.Stack
	const icmpID = 0xD0D0

	type roundState struct{ measuring bool }
	states := make([]roundState, opts.Rounds)

	srv.OnICMP(icmpID, func(ic *packet.ICMP, p *packet.Packet, at time.Duration) {
		round := int(ic.Seq / 2)
		if round >= opts.Rounds {
			return
		}
		rec := &res.Records[round]
		if ic.Seq%2 == 0 {
			// Wake reply arrived: fire the measurement probe now.
			if states[round].measuring {
				return
			}
			states[round].measuring = true
			rec.SentAt = tb.Sim.Now()
			req := srv.SendEcho(testbed.PhoneIP, icmpID, ic.Seq+1, 56)
			rec.ReqID = req.ID
			return
		}
		if rec.OK {
			return
		}
		rec.RecvAt = at
		rec.RespID = p.ID
		rec.RTT = rec.RecvAt - rec.SentAt
		rec.OK = true
	})

	for i := 0; i < opts.Rounds; i++ {
		i := i
		tb.Sim.Post(time.Duration(i)*opts.Gap, func() {
			res.Records[i].Seq = i
			res.Sent++
			srv.SendEcho(testbed.PhoneIP, icmpID, uint16(2*i), 56) // wake probe
		})
	}

	deadline := time.Duration(opts.Rounds)*opts.Gap + opts.Timeout
	tb.Sim.Post(deadline, func() {
		srv.CloseICMP(icmpID)
		for i := range res.Records {
			if !res.Records[i].OK {
				res.Lost++
			}
		}
	})
	return res, deadline
}

// httpingConnectOnlyStart is httping -r: fresh connection per probe,
// connect time reported.
func httpingConnectOnlyStart(tb *testbed.Testbed, opts HTTPingOptions) (*Result, time.Duration) {
	res := &Result{Tool: "httping -r", Records: make([]ProbeRecord, opts.Count)}
	phone := tb.Phone
	for i := 0; i < opts.Count; i++ {
		i := i
		tb.Sim.Post(time.Duration(i)*opts.Interval, func() {
			rec := &res.Records[i]
			rec.Seq = i
			rec.SentAt = tb.Sim.Now()
			res.Sent++
			phone.AppDoAs(android.NativeC, func() {
				conn := phone.Stack.Dial(testbed.ServerIP, 80)
				rec.ReqID = conn.SynPacket.ID
				conn.OnConnected = func(at time.Duration, synAck *packet.Packet) {
					phone.AppDoAs(android.NativeC, func() {
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
	return res, deadline
}
