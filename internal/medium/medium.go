// Package medium simulates the shared 802.11g radio channel of the
// paper's testbed (Fig. 2): one collision domain containing the phone,
// the wireless load generator, and the AP, observed promiscuously by the
// external sniffers.
//
// The model is a simplified DCF: at most one frame occupies the channel
// at a time; stations with queued frames contend whenever the channel
// goes idle; the winner pays DIFS plus a random backoff, transmits for
// the frame's airtime, and unicast data is followed by SIFS + ACK. When
// several stations contend, access attempts collide with a probability
// that grows with the number of contenders, wasting the frame's airtime
// and doubling the loser's contention window — the mechanism that lets
// the iPerf cross traffic of §4.3 inflate and spread the measured RTTs.
package medium

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/simtime"
)

// Station is a node attached to the radio channel.
type Station interface {
	// MAC returns the station's link-layer address.
	MAC() packet.MACAddr
	// RadioOn reports whether the receiver is powered (false while a PSM
	// station dozes). Frames unicast to a powered-off radio fail.
	RadioOn() bool
	// DeliverFrame hands the station a frame at the end of its airtime.
	DeliverFrame(p *packet.Packet)
}

// Tap observes every frame on the air, like the paper's wireless
// sniffers. Taps see frames regardless of destination or radio states.
// The medium clones each completed frame once and hands that one copy
// to every tap, so the frame is shared and read-only: a tap may keep
// the pointer but must not modify the packet. The receiving station
// gets the original, so nothing a receiver does to its frame reaches
// the taps.
type Tap interface {
	CaptureFrame(p *packet.Packet, airStart, airEnd time.Duration)
}

// TxResult reports the outcome of a transmission to its initiator.
type TxResult int

// Transmission outcomes.
const (
	// TxOK: frame delivered (and acked, for unicast).
	TxOK TxResult = iota
	// TxNoReceiver: no ACK — the destination is unknown or its radio was
	// off. The AP uses this to re-buffer frames for dozing stations.
	TxNoReceiver
	// TxDroppedQueue: the sender's device queue was full.
	TxDroppedQueue
	// TxDroppedRetries: retry limit exceeded (persistent collisions).
	TxDroppedRetries
)

// String implements fmt.Stringer.
func (r TxResult) String() string {
	switch r {
	case TxOK:
		return "ok"
	case TxNoReceiver:
		return "no-receiver"
	case TxDroppedQueue:
		return "dropped-queue"
	case TxDroppedRetries:
		return "dropped-retries"
	default:
		return fmt.Sprintf("TxResult(%d)", int(r))
	}
}

type txJob struct {
	frame   *packet.Packet
	retries int
	done    func(TxResult)
}

// Options tune the medium model.
type Options struct {
	// QueueCap bounds each station's transmit queue (device ring).
	QueueCap int
	// MaxRetries bounds collision retries per frame.
	MaxRetries int
	// CollisionProbPerContender scales collision probability: with n
	// contending stations, p = CollisionProbPerContender × (n−1), capped
	// at CollisionProbCap.
	CollisionProbPerContender float64
	CollisionProbCap          float64
}

// DefaultOptions returns the values used by the simulated testbed.
func DefaultOptions() Options {
	return Options{
		QueueCap:                  128,
		MaxRetries:                7,
		CollisionProbPerContender: 0.18,
		CollisionProbCap:          0.45,
	}
}

// Medium is the shared channel. All methods must be called from the
// simulation event loop.
type Medium struct {
	sim  *simtime.Sim
	phy  phy.Params
	opts Options

	// stations and queues are indexed alike, in attach order; index
	// maps a MAC to that position.
	stations []Station
	queues   [][]txJob
	index    map[packet.MACAddr]int
	taps     []Tap

	// busy is set while air holds the frame occupying the channel;
	// endRound is posted to end its access round.
	busy bool
	air  onAir
}

// onAir is the access round in progress: the job dequeued from
// station src, whether it collides, and its airtime.
type onAir struct {
	job        txJob
	src        int
	collided   bool
	start, end time.Duration
}

// New creates a medium over the given PHY.
func New(sim *simtime.Sim, params phy.Params, opts Options) *Medium {
	return &Medium{
		sim:   sim,
		phy:   params,
		opts:  opts,
		index: make(map[packet.MACAddr]int),
	}
}

// Attach joins a station to the channel.
func (m *Medium) Attach(st Station) {
	mac := st.MAC()
	if _, dup := m.index[mac]; dup {
		panic(fmt.Sprintf("medium: duplicate station %s", mac))
	}
	m.index[mac] = len(m.stations)
	m.stations = append(m.stations, st)
	m.queues = append(m.queues, nil)
}

// AttachTap adds a promiscuous observer.
func (m *Medium) AttachTap(t Tap) { m.taps = append(m.taps, t) }

// Transmit queues a frame for transmission. done (may be nil) is invoked
// once with the outcome. Priority frames (beacons) jump the queue.
func (m *Medium) Transmit(src Station, frame *packet.Packet, priority bool, done func(TxResult)) {
	if frame.Dot11() == nil {
		panic("medium: transmit of frame without 802.11 header")
	}
	i, ok := m.index[src.MAC()]
	if !ok {
		panic(fmt.Sprintf("medium: transmit from unattached station %s", src.MAC()))
	}
	if len(m.queues[i]) >= m.opts.QueueCap {
		if done != nil {
			done(TxDroppedQueue)
		}
		return
	}
	job := txJob{frame: frame, done: done}
	if priority {
		m.pushFront(i, job)
	} else {
		m.queues[i] = append(m.queues[i], job)
	}
	m.kick()
}

// pushFront puts job at the head of station i's queue.
func (m *Medium) pushFront(i int, job txJob) {
	q := append(m.queues[i], txJob{})
	copy(q[1:], q)
	q[0] = job
	m.queues[i] = q
}

// popFront dequeues the head of station i's queue. The queue keeps its
// backing array, so a station's steady traffic allocates nothing.
func (m *Medium) popFront(i int) txJob {
	q := m.queues[i]
	job := q[0]
	copy(q, q[1:])
	q[len(q)-1] = txJob{}
	m.queues[i] = q[:len(q)-1]
	return job
}

// kick starts a channel access round if the medium is idle.
func (m *Medium) kick() {
	if m.busy {
		return
	}
	n := 0
	for _, q := range m.queues {
		if len(q) > 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	m.busy = true

	// The winner is the k-th contender in attach order.
	k := m.sim.Rand().Intn(n)
	winner := 0
	for i, q := range m.queues {
		if len(q) == 0 {
			continue
		}
		if k == 0 {
			winner = i
			break
		}
		k--
	}
	// Dequeue the job now: frames that arrive mid-transmission (even
	// priority ones) must queue behind the frame already on the air.
	job := m.popFront(winner)

	collided := false
	if n > 1 {
		p := m.opts.CollisionProbPerContender * float64(n-1)
		if p > m.opts.CollisionProbCap {
			p = m.opts.CollisionProbCap
		}
		collided = m.sim.Rand().Float64() < p
	}

	access := m.phy.DIFS() + m.backoff(job.retries)
	airtime := m.frameAirtime(job.frame)
	busyFor := access + airtime
	d11 := job.frame.Dot11()
	unicast := !d11.Addr1.IsBroadcast()
	if unicast && !collided {
		busyFor += m.phy.SIFS + m.phy.AckTime()
	}
	start := m.sim.Now() + access

	m.air = onAir{job: job, src: winner, collided: collided, start: start, end: start + airtime}
	simtime.PostWith(m.sim, busyFor, (*Medium).endRound, m)
}

// endRound ends the access round in m.air: a collided frame is retried
// or dropped, any other is delivered. Then the next round starts.
func (m *Medium) endRound() {
	a := m.air
	m.air = onAir{}
	m.busy = false
	if a.collided {
		a.job.retries++
		if a.job.retries > m.opts.MaxRetries {
			if a.job.done != nil {
				a.job.done(TxDroppedRetries)
			}
		} else {
			// Retry keeps its place at the head of the queue.
			m.pushFront(a.src, a.job)
		}
		m.kick()
		return
	}
	m.complete(a.src, &a.job, a.start, a.end)
	m.kick()
}

// backoff draws a uniform backoff from a window doubled per retry.
func (m *Medium) backoff(retries int) time.Duration {
	cw := m.phy.CWmin
	for i := 0; i < retries; i++ {
		cw = cw*2 + 1
		if cw >= m.phy.CWmax {
			cw = m.phy.CWmax
			break
		}
	}
	slots := m.sim.Rand().Intn(cw + 1)
	return time.Duration(slots) * m.phy.SlotTime
}

func (m *Medium) frameAirtime(p *packet.Packet) time.Duration {
	d11 := p.Dot11()
	rate := m.phy.DataRate
	if d11.Type == phyControlType || d11.IsBeacon() {
		rate = m.phy.ControlRate
	}
	return m.phy.Airtime(p.Length(), rate)
}

// phyControlType mirrors packet.Dot11Control without importing the
// constant into the airtime decision twice.
const phyControlType = packet.Dot11Control

// complete delivers a successfully transmitted frame.
func (m *Medium) complete(src int, job *txJob, airStart, airEnd time.Duration) {
	frame := job.frame
	if len(m.taps) > 0 {
		shared := frame.Clone()
		for _, t := range m.taps {
			t.CaptureFrame(shared, airStart, airEnd)
		}
	}
	d11 := frame.Dot11()
	if d11.Addr1.IsBroadcast() {
		for i, st := range m.stations {
			if i == src || !st.RadioOn() {
				continue
			}
			st.DeliverFrame(frame.Clone())
		}
		if job.done != nil {
			job.done(TxOK)
		}
		return
	}
	i, ok := m.index[d11.Addr1]
	if !ok || !m.stations[i].RadioOn() {
		if job.done != nil {
			job.done(TxNoReceiver)
		}
		return
	}
	m.stations[i].DeliverFrame(frame)
	if job.done != nil {
		job.done(TxOK)
	}
}
