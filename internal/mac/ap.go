package mac

import (
	"time"

	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// APConfig configures the access point.
type APConfig struct {
	MAC packet.MACAddr
	// BeaconIntervalTU is the beacon period in TUs (1.024 ms); the
	// paper's NETGEAR WNDR3800 uses 100 TU = 102.4 ms.
	BeaconIntervalTU int
	// BeaconPhase offsets the first beacon; a negative value asks for a
	// random phase, which de-correlates probe times from TBTTs the way a
	// real testbed run would.
	BeaconPhase time.Duration
	// ForwardLatency models the AP's bridging CPU cost per packet.
	ForwardLatency simtime.Dist
	// PSBufferCap bounds the per-station power-save buffer.
	PSBufferCap int
}

// DefaultAPConfig mirrors the paper's AP.
func DefaultAPConfig() APConfig {
	return APConfig{
		MAC:              packet.MAC(0xA9),
		BeaconIntervalTU: 100,
		BeaconPhase:      -1,
		ForwardLatency:   simtime.Uniform{Lo: 80 * time.Microsecond, Hi: 250 * time.Microsecond},
		PSBufferCap:      64,
	}
}

type assocEntry struct {
	aid uint16
	ps  bool
}

// AP is the access point: it beacons, bridges between the wireless and
// wired segments, and buffers downlink frames for dozing stations
// exactly as §3.2.2 describes.
type AP struct {
	sim *simtime.Sim
	med *medium.Medium
	cfg APConfig
	fac *packet.Factory
	tr  *trace.Trace

	ticker *simtime.Ticker
	assoc  map[packet.MACAddr]*assocEntry
	byIP   map[packet.IPv4Addr]packet.MACAddr
	psBuf  map[packet.MACAddr][]*packet.Packet
	seq    uint16

	// wiredOut carries uplink packets onto the wired segment.
	wiredOut func(*packet.Packet)
	// forward is forwardDown, bound once so that posting a packet to it
	// allocates nothing.
	forward func(*packet.Packet)
}

// NewAP creates an access point, attaches it to the medium, and starts
// beaconing. fac is the simulation's shared packet factory; tr may be
// nil.
func NewAP(sim *simtime.Sim, med *medium.Medium, cfg APConfig, fac *packet.Factory, tr *trace.Trace) *AP {
	if cfg.BeaconIntervalTU <= 0 {
		cfg.BeaconIntervalTU = 100
	}
	if cfg.PSBufferCap <= 0 {
		cfg.PSBufferCap = 64
	}
	a := &AP{
		sim:   sim,
		med:   med,
		cfg:   cfg,
		fac:   fac,
		tr:    tr,
		assoc: make(map[packet.MACAddr]*assocEntry),
		byIP:  make(map[packet.IPv4Addr]packet.MACAddr),
		psBuf: make(map[packet.MACAddr][]*packet.Packet),
	}
	a.forward = a.forwardDown
	med.Attach(a)
	phase := cfg.BeaconPhase
	if phase < 0 {
		phase = time.Duration(sim.Rand().Int63n(int64(a.BeaconInterval())))
	}
	a.ticker = simtime.NewTicker(sim, a.BeaconInterval(), phase, a.sendBeacon)
	return a
}

// SetWiredOut wires the uplink bridge callback.
func (a *AP) SetWiredOut(fn func(*packet.Packet)) { a.wiredOut = fn }

// BeaconInterval implements BeaconSchedule.
func (a *AP) BeaconInterval() time.Duration {
	return time.Duration(a.cfg.BeaconIntervalTU) * 1024 * time.Microsecond
}

// NextTBTT implements BeaconSchedule.
func (a *AP) NextTBTT(t time.Duration) time.Duration { return a.ticker.NextAfter(t) }

// Associate registers a station.
func (a *AP) Associate(mac packet.MACAddr, aid uint16, ip packet.IPv4Addr) {
	a.assoc[mac] = &assocEntry{aid: aid}
	a.byIP[ip] = mac
}

// MAC implements medium.Station.
func (a *AP) MAC() packet.MACAddr { return a.cfg.MAC }

// RadioOn implements medium.Station: the AP never sleeps.
func (a *AP) RadioOn() bool { return true }

func (a *AP) nextSeq() uint16 {
	a.seq = (a.seq + 1) & 0xfff
	return a.seq
}

// sendBeacon broadcasts a beacon whose TIM lists stations with buffered
// frames. Beacons jump the transmit queue, as real APs prioritise them.
func (a *AP) sendBeacon() {
	var aids []uint16
	for mac, buf := range a.psBuf {
		if len(buf) > 0 {
			if e := a.assoc[mac]; e != nil {
				aids = append(aids, e.aid)
			}
		}
	}
	b := a.fac.NewPacket(
		&packet.Dot11{Type: packet.Dot11Management, Subtype: packet.SubtypeBeacon,
			Addr1: packet.BroadcastMAC, Addr2: a.cfg.MAC, Addr3: a.cfg.MAC, Seq: a.nextSeq()},
		&packet.Beacon{
			TimestampUS:  uint64(a.sim.Now() / time.Microsecond),
			IntervalTU:   uint16(a.cfg.BeaconIntervalTU),
			DTIMPeriod:   1,
			BufferedAIDs: aids,
		},
	)
	a.med.Transmit(a, b, true, nil)
}

// DeliverFrame implements medium.Station: uplink processing.
func (a *AP) DeliverFrame(p *packet.Packet) {
	d11 := p.Dot11()
	if d11 == nil {
		return
	}
	switch {
	case d11.IsPSPoll():
		a.handlePSPoll(d11.Addr2)
		return
	case d11.Type != packet.Dot11Data:
		return
	}
	// Track the power-management bit of every data frame (null or not):
	// PM=1 means the station is about to doze; PM=0 announces CAM.
	if e := a.assoc[d11.Addr2]; e != nil {
		wasPS := e.ps
		e.ps = d11.PwrMgmt
		a.tr.Addf(a.sim.Now(), "ap", "pm_bit", "sta=%s ps=%t", d11.Addr2, e.ps)
		if wasPS && !e.ps {
			a.flushBuffered(d11.Addr2)
		}
	}
	if d11.IsNullData() {
		return
	}
	ip := p.IPv4()
	if ip == nil {
		return
	}
	p.StripOuter(packet.LayerTypeDot11)
	a.route(p)
}

// route forwards an IP packet: wireless destinations are re-wrapped and
// sent downlink, everything else goes to the wired side.
func (a *AP) route(ipPkt *packet.Packet) {
	ip := ipPkt.IPv4()
	if mac, ok := a.byIP[ip.Dst]; ok {
		a.sendDown(ipPkt, mac)
		return
	}
	if a.wiredOut != nil {
		a.wiredOut(ipPkt)
	}
}

// WiredDeliver accepts a packet arriving from the wired segment; after
// the bridging latency it is routed to the owning station.
func (a *AP) WiredDeliver(ipPkt *packet.Packet) {
	delay := time.Duration(0)
	if a.cfg.ForwardLatency != nil {
		delay = a.cfg.ForwardLatency.Sample(a.sim)
	}
	simtime.PostWith(a.sim, delay, a.forward, ipPkt)
}

// forwardDown sends a bridged packet on to the station that owns its
// destination.
func (a *AP) forwardDown(ipPkt *packet.Packet) {
	ip := ipPkt.IPv4()
	if ip == nil {
		return
	}
	mac, ok := a.byIP[ip.Dst]
	if !ok {
		return // not a wireless client of ours
	}
	a.sendDown(ipPkt, mac)
}

// sendDown transmits (or buffers) a downlink IP packet for a station.
func (a *AP) sendDown(ipPkt *packet.Packet, mac packet.MACAddr) {
	e := a.assoc[mac]
	if e == nil {
		return
	}
	if e.ps {
		a.buffer(mac, ipPkt)
		return
	}
	a.transmitDown(ipPkt, mac, false)
}

func (a *AP) buffer(mac packet.MACAddr, ipPkt *packet.Packet) {
	buf := a.psBuf[mac]
	if len(buf) >= a.cfg.PSBufferCap {
		return
	}
	a.psBuf[mac] = append(buf, ipPkt)
	a.tr.Addf(a.sim.Now(), "ap", "ps_buffer", "sta=%s depth=%d", mac, len(a.psBuf[mac]))
}

// transmitDown wraps and transmits one downlink frame. moreData marks
// continued PS retrievals.
func (a *AP) transmitDown(ipPkt *packet.Packet, mac packet.MACAddr, moreData bool) {
	ipPkt.PushDot11(packet.Dot11{
		Type: packet.Dot11Data, Subtype: packet.SubtypeData,
		FromDS:   true,
		MoreData: moreData,
		Addr1:    mac, Addr2: a.cfg.MAC, Addr3: a.cfg.MAC,
		Seq: a.nextSeq(),
	})
	a.med.Transmit(a, ipPkt, false, func(r medium.TxResult) {
		if r == medium.TxNoReceiver {
			// The station dozed off before the frame made it out: put it
			// back in the PS buffer, to be announced at the next TBTT.
			if e := a.assoc[mac]; e != nil {
				e.ps = true
			}
			ipPkt.StripOuter(packet.LayerTypeDot11)
			a.buffer(mac, ipPkt)
		}
	})
}

// handlePSPoll releases one buffered frame to a polling station.
func (a *AP) handlePSPoll(mac packet.MACAddr) {
	buf := a.psBuf[mac]
	if len(buf) == 0 {
		return
	}
	frame := buf[0]
	a.psBuf[mac] = buf[1:]
	a.tr.Addf(a.sim.Now(), "ap", "ps_release", "sta=%s remaining=%d", mac, len(a.psBuf[mac]))
	a.transmitDown(frame, mac, len(a.psBuf[mac]) > 0)
}

// flushBuffered sends every buffered frame to a station that has just
// announced CAM.
func (a *AP) flushBuffered(mac packet.MACAddr) {
	buf := a.psBuf[mac]
	if len(buf) == 0 {
		return
	}
	a.psBuf[mac] = nil
	for _, frame := range buf {
		a.transmitDown(frame, mac, false)
	}
}
