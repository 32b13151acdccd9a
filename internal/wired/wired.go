// Package wired models the cabled half of the paper's testbed (Fig. 2):
// the switch connecting the AP to the measurement server and load
// server, per-port netem-style delay (the paper's `tc` command on the
// server side that emulates 20–135 ms nRTTs), and the gateway routing
// function of the AP, which decrements TTL — the first hop at which
// AcuteMon's TTL=1 warm-up and background packets are dropped (§4.1).
package wired

import (
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// Node is a wired endpoint (implemented by *kernel.Stack).
type Node interface {
	IP() packet.IPv4Addr
	DeliverFromDevice(p *packet.Packet)
}

// Config parameterises the wired network.
type Config struct {
	// FabricLatency is the switch's store-and-forward cost per packet.
	FabricLatency simtime.Dist
	// GatewayIP is the router address (the AP's LAN address); ICMP
	// time-exceeded errors originate here.
	GatewayIP packet.IPv4Addr
	// TimeExceededReply controls whether the gateway answers TTL-expired
	// packets with ICMP type 11. Real Linux gateways do, but rate-limit
	// aggressively; AcuteMon ignores the replies either way.
	TimeExceededReply bool
	// TimeExceededMinGap is the ICMP error rate limit.
	TimeExceededMinGap time.Duration
}

// DefaultConfig mirrors the testbed's switch and NETGEAR gateway.
func DefaultConfig() Config {
	return Config{
		FabricLatency:      simtime.Uniform{Lo: 5 * time.Microsecond, Hi: 20 * time.Microsecond},
		GatewayIP:          packet.IP(192, 168, 1, 1),
		TimeExceededReply:  false,
		TimeExceededMinGap: time.Second,
	}
}

type port struct {
	node    Node
	ingress simtime.Dist // node → switch
	egress  simtime.Dist // switch → node
	// deliver is node.DeliverFromDevice, bound once.
	deliver func(*packet.Packet)
}

// Stats counts wired-network events. Forwarded is atomic because fleet
// campaigns may one day wire several worker-driven phones through one
// shared segment; the energy experiment reads it as the packets that
// went beyond the gateway.
type Stats struct {
	Forwarded atomic.Uint64
}

// Network is the switch + gateway combination.
type Network struct {
	sim *simtime.Sim
	cfg Config
	fac *packet.Factory

	ports map[packet.IPv4Addr]*port
	// toWLAN delivers packets addressed to wireless clients (via the
	// AP's bridging entry point).
	toWLAN func(*packet.Packet)
	// wlanSubnet tells the router which destinations live behind the AP.
	wlanSubnet func(packet.IPv4Addr) bool

	lastTimeExceeded time.Duration

	// routeFn is route, bound once so that posting a packet to it
	// allocates nothing.
	routeFn func(*packet.Packet)

	Stats Stats
}

// New creates a wired network.
func New(sim *simtime.Sim, fac *packet.Factory, cfg Config) *Network {
	n := &Network{
		sim:              sim,
		cfg:              cfg,
		fac:              fac,
		ports:            make(map[packet.IPv4Addr]*port),
		lastTimeExceeded: -time.Hour,
	}
	n.routeFn = n.route
	return n
}

// AttachHost plugs a node into the switch with the given per-direction
// delays (nil = none). The returned function is the node's transmit
// device: wire it as the stack's Device.
func (n *Network) AttachHost(node Node, ingress, egress simtime.Dist) func(*packet.Packet) {
	p := &port{node: node, ingress: ingress, egress: egress, deliver: node.DeliverFromDevice}
	n.ports[node.IP()] = p
	return func(pkt *packet.Packet) {
		simtime.PostWith(n.sim, n.sample(p.ingress), n.routeFn, pkt)
	}
}

// SetWLAN wires the wireless side: deliver pushes a packet to the AP's
// bridging entry; subnet reports whether an address lives on the WLAN.
func (n *Network) SetWLAN(deliver func(*packet.Packet), subnet func(packet.IPv4Addr) bool) {
	n.toWLAN = deliver
	n.wlanSubnet = subnet
}

func (n *Network) sample(d simtime.Dist) time.Duration {
	if d == nil {
		return 0
	}
	return d.Sample(n.sim)
}

// FromWLAN is the uplink entry: the AP's routing function forwards a
// wireless client's packet into the wired segment. The gateway
// decrements TTL here — the "first-hop router" of §4.1.
func (n *Network) FromWLAN(p *packet.Packet) {
	ip := p.IPv4()
	if ip == nil {
		return
	}
	if ip.TTL <= 1 {
		ip.TTL = 0
		n.maybeTimeExceeded(p)
		return
	}
	ip.TTL--
	simtime.PostWith(n.sim, n.sample(n.cfg.FabricLatency), n.routeFn, p)
}

// route forwards a packet inside the wired segment.
func (n *Network) route(p *packet.Packet) {
	ip := p.IPv4()
	if ip == nil {
		return
	}
	if prt, ok := n.ports[ip.Dst]; ok {
		n.Stats.Forwarded.Add(1)
		d := n.sample(n.cfg.FabricLatency) + n.sample(prt.egress)
		simtime.PostWith(n.sim, d, prt.deliver, p)
		return
	}
	if n.wlanSubnet != nil && n.wlanSubnet(ip.Dst) && n.toWLAN != nil {
		// Crossing back into the WLAN: the gateway routes (and
		// decrements TTL) before handing the packet to the AP.
		if ip.TTL <= 1 {
			ip.TTL = 0
			n.maybeTimeExceeded(p)
			return
		}
		ip.TTL--
		n.Stats.Forwarded.Add(1)
		simtime.PostWith(n.sim, n.sample(n.cfg.FabricLatency), n.toWLAN, p)
		return
	}
	// No route: the packet is dropped.
}

// maybeTimeExceeded emits a rate-limited ICMP time-exceeded error toward
// the packet's source.
func (n *Network) maybeTimeExceeded(orig *packet.Packet) {
	if !n.cfg.TimeExceededReply {
		return
	}
	if n.sim.Now()-n.lastTimeExceeded < n.cfg.TimeExceededMinGap {
		return
	}
	n.lastTimeExceeded = n.sim.Now()
	ip := orig.IPv4()
	reply := n.fac.NewIPv4(
		packet.IPv4{TTL: 64, Protocol: packet.ProtoICMP, Src: n.cfg.GatewayIP, Dst: ip.Src},
		&packet.ICMP{Type: packet.ICMPTimeExceeded, Code: 0},
		nil,
	)
	// The error goes back the way the packet came.
	if n.wlanSubnet != nil && n.wlanSubnet(ip.Src) && n.toWLAN != nil {
		simtime.PostWith(n.sim, n.sample(n.cfg.FabricLatency), n.toWLAN, reply)
		return
	}
	n.route(reply)
}
