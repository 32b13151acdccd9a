// Package driver models the Android WNIC drivers the paper instruments:
// Broadcom's bcmdhd (SDIO bus, FullMAC) and Qualcomm's wcnss (SMD). The
// send path reproduces the call chain of the paper's Figure 4
// (dhd_start_xmit → dhd_sched_dpc → dpc thread → dhdsdio_bussleep →
// dhdsdio_clkctl → dhdsdio_sendfromq → dhdsdio_txpkt) and the receive
// path Figure 5 (dhdsdio_isr → dpc → dhdsdio_readframes → dhd_rx_frame →
// dhd_sched_rxf → rxf thread → netif_rx_ni), with the same two
// measurement points the authors patched in: dvsend between
// dhd_start_xmit and dhdsdio_txpkt, dvrecv between dhdsdio_isr and
// dhd_rxf_enqueue (Table 3).
package driver

import (
	"time"

	"repro/internal/medium"
	"repro/internal/packet"
	"repro/internal/sdio"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

// names carries the per-driver function names used in traces.
type names struct {
	startXmit, sendpkt, protHdrpush, tcpackSup, busTxdata, schedDpc string
	busDpc, dpc, bussleep, clkctl, sendfromq, txpkt                 string
	isr, readframes, rxFrame, schedRxf, rxfEnqueue                  string
	rxfDequeue, netifRx                                             string
}

var bcmdhdNames = names{
	startXmit: "dhd_start_xmit", sendpkt: "dhd_sendpkt", protHdrpush: "dhd_prot_hdrpush",
	tcpackSup: "dhd_tcpack_suppress", busTxdata: "dhd_bus_txdata", schedDpc: "dhd_sched_dpc",
	busDpc: "dhd_bus_dpc", dpc: "dhdsdio_dpc", bussleep: "dhdsdio_bussleep",
	clkctl: "dhdsdio_clkctl", sendfromq: "dhdsdio_sendfromq", txpkt: "dhdsdio_txpkt",
	isr: "dhdsdio_isr", readframes: "dhdsdio_readframes", rxFrame: "dhd_rx_frame",
	schedRxf: "dhd_sched_rxf", rxfEnqueue: "dhd_rxf_enqueue",
	rxfDequeue: "dhd_rxf_dequeue", netifRx: "netif_rx_ni",
}

var wcnssNames = names{
	startXmit: "wcnss_hard_start_xmit", sendpkt: "wcnss_sendpkt", protHdrpush: "wcnss_prot_push",
	tcpackSup: "wcnss_tcpack", busTxdata: "wcnss_smd_txdata", schedDpc: "wcnss_sched_dpc",
	busDpc: "wcnss_bus_dpc", dpc: "wcnss_dpc", bussleep: "wcnss_smd_sleep",
	clkctl: "wcnss_clkctl", sendfromq: "wcnss_sendfromq", txpkt: "wcnss_smd_txpkt",
	isr: "wcnss_smd_isr", readframes: "wcnss_readframes", rxFrame: "wcnss_rx_frame",
	schedRxf: "wcnss_sched_rxf", rxfEnqueue: "wcnss_rxf_enqueue",
	rxfDequeue: "wcnss_rxf_dequeue", netifRx: "netif_rx_ni",
}

// Config parameterises a driver model.
type Config struct {
	// Name is the driver name ("bcmdhd" or "wcnss").
	Name string
	// Bus is the host-interconnect power model.
	Bus sdio.Config
	// DpcSched is the latency from dhd_sched_dpc to the dpc kthread
	// actually running.
	DpcSched simtime.Dist
	// ClkCtl is the backplane-clock readiness check when already ramped.
	ClkCtl simtime.Dist
	// ProtOverhead covers dhd_prot_hdrpush/tcpack_suppress work.
	ProtOverhead simtime.Dist
	// ClockRamp is the extra HT-clock ramp paid when the bus is awake but
	// has been idle beyond the idle period with sleep disabled. This is
	// what keeps Table 3's "disabled / 1000ms" dvsend around 0.7 ms
	// instead of 0.2 ms.
	ClockRamp simtime.Dist
	// TxBusWrite is the data transfer into firmware after dhdsdio_txpkt.
	TxBusWrite simtime.Dist
	// RxReadFrames spans dhdsdio_readframes through dhd_rxf_enqueue.
	RxReadFrames simtime.Dist
	// RxDequeue spans the rxf thread dequeue through netif_rx_ni.
	RxDequeue simtime.Dist
}

// Bcmdhd returns the Nexus 5 (BCM4339)-calibrated driver model.
func Bcmdhd() Config {
	return Config{
		Name:         "bcmdhd",
		Bus:          sdio.Broadcom(),
		DpcSched:     simtime.Uniform{Lo: 30 * time.Microsecond, Hi: 140 * time.Microsecond},
		ClkCtl:       simtime.Uniform{Lo: 20 * time.Microsecond, Hi: 80 * time.Microsecond},
		ProtOverhead: simtime.Uniform{Lo: 20 * time.Microsecond, Hi: 120 * time.Microsecond},
		ClockRamp:    simtime.Uniform{Lo: 300 * time.Microsecond, Hi: 800 * time.Microsecond},
		TxBusWrite:   simtime.Uniform{Lo: 60 * time.Microsecond, Hi: 160 * time.Microsecond},
		RxReadFrames: simtime.Uniform{Lo: 850 * time.Microsecond, Hi: 1950 * time.Microsecond},
		RxDequeue:    simtime.Uniform{Lo: 30 * time.Microsecond, Hi: 100 * time.Microsecond},
	}
}

// Wcnss returns the Nexus 4 / HTC One (WCN36xx)-calibrated driver model.
func Wcnss() Config {
	return Config{
		Name:         "wcnss",
		Bus:          sdio.Qualcomm(),
		DpcSched:     simtime.Uniform{Lo: 25 * time.Microsecond, Hi: 110 * time.Microsecond},
		ClkCtl:       simtime.Uniform{Lo: 10 * time.Microsecond, Hi: 50 * time.Microsecond},
		ProtOverhead: simtime.Uniform{Lo: 15 * time.Microsecond, Hi: 80 * time.Microsecond},
		ClockRamp:    simtime.Uniform{Lo: 150 * time.Microsecond, Hi: 400 * time.Microsecond},
		TxBusWrite:   simtime.Uniform{Lo: 40 * time.Microsecond, Hi: 130 * time.Microsecond},
		RxReadFrames: simtime.Uniform{Lo: 500 * time.Microsecond, Hi: 1200 * time.Microsecond},
		RxDequeue:    simtime.Uniform{Lo: 30 * time.Microsecond, Hi: 90 * time.Microsecond},
	}
}

// DvRecord is one instrumented driver-latency sample.
type DvRecord struct {
	PktID   uint64
	At      time.Duration
	Latency time.Duration
	// PaidWake reports whether the sample included a bus wake.
	PaidWake bool
}

// Instrumentation accumulates the paper's dvsend/dvrecv measurements.
type Instrumentation struct {
	Send []DvRecord
	Recv []DvRecord
}

// SendSample extracts dvsend as a stats sample.
func (in *Instrumentation) SendSample() stats.Sample {
	out := make(stats.Sample, len(in.Send))
	for i, r := range in.Send {
		out[i] = r.Latency
	}
	return out
}

// RecvSample extracts dvrecv as a stats sample.
func (in *Instrumentation) RecvSample() stats.Sample {
	out := make(stats.Sample, len(in.Recv))
	for i, r := range in.Recv {
		out[i] = r.Latency
	}
	return out
}

// StationTx is the downward interface the driver transmits through,
// implemented by *mac.STA.
type StationTx interface {
	Send(ip *packet.Packet, done func(medium.TxResult))
}

// Driver is the simulated WNIC driver instance.
type Driver struct {
	sim *simtime.Sim
	cfg Config
	nm  names
	bus *sdio.Bus
	tr  *trace.Trace

	sta    StationTx
	recvUp func(*packet.Packet)

	// FIFO watermarks prevent random stage latencies from reordering
	// packets within a direction: the dpc and rxf threads are single
	// kernel threads, so their work is inherently serialized. One
	// watermark per pipeline stage.
	txDispatchWM, txReadyWM, txWriteWM   time.Duration
	rxDispatchWM, rxReadyWM, rxDeliverWM time.Duration

	Instr Instrumentation

	// Stats
	TxPackets, RxPackets uint64
}

// New builds a driver and its bus. Wire the STA with SetSTA and the
// kernel receive hook with SetRecvUp before use. tr may be nil.
func New(sim *simtime.Sim, cfg Config, tr *trace.Trace) *Driver {
	nm := bcmdhdNames
	if cfg.Name == "wcnss" {
		nm = wcnssNames
	}
	return &Driver{
		sim: sim,
		cfg: cfg,
		nm:  nm,
		bus: sdio.New(sim, cfg.Bus, tr),
		tr:  tr,
	}
}

// Bus exposes the host-interconnect model (for experiments that disable
// bus sleep).
func (d *Driver) Bus() *sdio.Bus { return d.bus }

// SetSTA attaches the station MAC below the driver.
func (d *Driver) SetSTA(s StationTx) { d.sta = s }

// SetRecvUp attaches the kernel hook above the driver.
func (d *Driver) SetRecvUp(fn func(*packet.Packet)) { d.recvUp = fn }

// SetBusSleepEnabled toggles the paper's driver modification.
func (d *Driver) SetBusSleepEnabled(on bool) { d.bus.SetSleepEnabled(on) }

func (d *Driver) sample(dist simtime.Dist) time.Duration {
	if dist == nil {
		return 0
	}
	return dist.Sample(d.sim)
}

// fifoClamp returns max(at, *wm) and advances the watermark, so events
// scheduled through it fire in submission order.
func fifoClamp(wm *time.Duration, at time.Duration) time.Duration {
	if at < *wm {
		at = *wm
	}
	*wm = at
	return at
}

// Send transmits an IP packet: the paper's Figure 4 path. done may be
// nil; it fires with the MAC-level outcome.
func (d *Driver) Send(ip *packet.Packet, done func(medium.TxResult)) {
	if d.sta == nil {
		panic("driver: SetSTA not called")
	}
	t0 := d.sim.Now()
	d.tr.Addf(t0, "tx", d.nm.startXmit, "pkt=%d", ip.ID)
	d.tr.Add(t0, "tx", d.nm.sendpkt, "")
	d.tr.Add(t0, "tx", d.nm.protHdrpush, "")
	d.tr.Add(t0, "tx", d.nm.tcpackSup, "")
	d.tr.Add(t0, "tx", d.nm.busTxdata, "")
	d.tr.Add(t0, "tx", d.nm.schedDpc, "")

	prot := d.sample(d.cfg.ProtOverhead)
	dpcLat := d.sample(d.cfg.DpcSched)
	wasAsleep := d.bus.Asleep()
	idleRamp := time.Duration(0)
	if !wasAsleep && d.bus.IdleFor() >= d.bus.IdlePeriod() {
		// Sleep is disabled (or the watchdog has not yet demoted): the
		// HT clock still needs a ramp after a long idle gap.
		idleRamp = d.sample(d.cfg.ClockRamp)
	}

	dispatchAt := fifoClamp(&d.txDispatchWM, d.sim.Now()+prot+dpcLat)
	d.sim.PostAt(dispatchAt, func() {
		now := d.sim.Now()
		d.tr.Add(now, "dpc", d.nm.busDpc, "")
		d.tr.Add(now, "dpc", d.nm.dpc, "")
		d.tr.Addf(now, "dpc", d.nm.bussleep, "asleep=%t", wasAsleep)
		d.bus.Acquire(sdio.Tx, func() {
			clk := d.sample(d.cfg.ClkCtl) + idleRamp
			d.tr.Add(d.sim.Now(), "dpc", d.nm.clkctl, "")
			readyAt := fifoClamp(&d.txReadyWM, d.sim.Now()+clk)
			d.sim.PostAt(readyAt, func() { d.finishSend(ip, t0, wasAsleep, done) })
		})
	})
}

func (d *Driver) finishSend(ip *packet.Packet, t0 time.Duration, paidWake bool, done func(medium.TxResult)) {
	now := d.sim.Now()
	d.tr.Add(now, "dpc", d.nm.sendfromq, "")
	d.tr.Addf(now, "dpc", d.nm.txpkt, "dvsend=%v", now-t0)
	d.Instr.Send = append(d.Instr.Send, DvRecord{PktID: ip.ID, At: now, Latency: now - t0, PaidWake: paidWake})
	d.TxPackets++
	writeAt := fifoClamp(&d.txWriteWM, now+d.sample(d.cfg.TxBusWrite))
	d.sim.PostAt(writeAt, func() {
		d.bus.Touch()
		d.sta.Send(ip, done)
	})
}

// HandleFrameFromMAC accepts an inbound data frame from the station MAC:
// the paper's Figure 5 path. The 802.11 header is stripped before the
// packet is handed to the kernel.
func (d *Driver) HandleFrameFromMAC(frame *packet.Packet) {
	t0 := d.sim.Now()
	d.tr.Addf(t0, "isr", d.nm.isr, "pkt=%d", frame.ID)
	d.tr.Add(t0, "isr", d.nm.schedDpc, "")
	wasAsleep := d.bus.Asleep()
	dpcLat := d.sample(d.cfg.DpcSched)

	dispatchAt := fifoClamp(&d.rxDispatchWM, d.sim.Now()+dpcLat)
	d.sim.PostAt(dispatchAt, func() {
		d.tr.Add(d.sim.Now(), "dpc", d.nm.busDpc, "")
		d.tr.Add(d.sim.Now(), "dpc", d.nm.dpc, "")
		d.tr.Addf(d.sim.Now(), "dpc", d.nm.bussleep, "asleep=%t", wasAsleep)
		d.bus.Acquire(sdio.Rx, func() {
			read := d.sample(d.cfg.RxReadFrames)
			d.tr.Add(d.sim.Now(), "dpc", d.nm.readframes, "")
			readyAt := fifoClamp(&d.rxReadyWM, d.sim.Now()+read)
			d.sim.PostAt(readyAt, func() { d.finishRecv(frame, t0, wasAsleep) })
		})
	})
}

func (d *Driver) finishRecv(frame *packet.Packet, t0 time.Duration, paidWake bool) {
	now := d.sim.Now()
	d.tr.Add(now, "dpc", d.nm.rxFrame, "")
	d.tr.Add(now, "dpc", d.nm.schedRxf, "")
	d.tr.Addf(now, "dpc", d.nm.rxfEnqueue, "dvrecv=%v", now-t0)
	d.Instr.Recv = append(d.Instr.Recv, DvRecord{PktID: frame.ID, At: now, Latency: now - t0, PaidWake: paidWake})
	d.RxPackets++
	d.bus.Touch()

	deliverAt := fifoClamp(&d.rxDeliverWM, now+d.sample(d.cfg.RxDequeue))
	d.sim.PostAt(deliverAt, func() {
		d.tr.Add(d.sim.Now(), "rxf", d.nm.rxfDequeue, "")
		d.tr.Add(d.sim.Now(), "rxf", d.nm.netifRx, "")
		frame.StripOuter(packet.LayerTypeDot11)
		if d.recvUp != nil {
			d.recvUp(frame)
		}
	})
}
