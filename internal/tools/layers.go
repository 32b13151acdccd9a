package tools

import (
	"repro/internal/session"
	"repro/internal/sniffer"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// ExtractLayers walks a run's probe records against the phone's bpf
// capture and m, the testbed's merged sniffer capture, exactly once and
// returns every per-layer sample at once: du/dk/dn (the paper's §3 layer decomposition) plus
// the derived Δdu−k and Δdk−n overheads (Figures 3 and 7). It is the
// one shared extraction path — LayerSamples, Overheads,
// core.OverheadStats, the experiments suites, and the session methods
// all delegate here instead of re-walking the capture per quantity.
//
// du is the tool-*reported* RTT (quirks included), matching the paper's
// definition of the user-level measurement — so Android ping's integer
// truncation can, as in Fig 3(b)/(d), drive Δdu−k negative.
func ExtractLayers(tb *testbed.Testbed, m *sniffer.Merged, recs []ProbeRecord) session.Layers {
	var l session.Layers
	for _, rec := range recs {
		if !rec.OK {
			continue
		}
		x := tb.ExtractRTTs(m, rec.ReqID, rec.RespID)
		l.Du = append(l.Du, rec.RTT)
		if x.DkOK {
			l.Dk = append(l.Dk, x.Dk)
			l.DuK = append(l.DuK, rec.RTT-x.Dk)
		}
		if x.DnOK {
			l.Dn = append(l.Dn, x.Dn)
		}
		if d, ok := x.DeltaKN(); ok {
			l.DkN = append(l.DkN, d)
		}
	}
	return l
}

// LayerSamples extracts per-layer RTT samples for the run's successful
// probes. Kept for callers that only want the raw layers; it shares the
// single capture walk of ExtractLayers.
func LayerSamples(tb *testbed.Testbed, r Result) (du, dk, dn stats.Sample) {
	l := ExtractLayers(tb, tb.MergedCapture(), r.Records)
	return l.Du, l.Dk, l.Dn
}
