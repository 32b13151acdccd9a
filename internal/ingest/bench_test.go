package ingest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/puncture"
)

// benchBatch synthesizes one wire batch: size summaries of k RTTs each,
// spread over a five-model census so store striping is exercised.
func benchBatch(size, k int) []Summary {
	models := []string{"Google Nexus 5", "Samsung Grand", "Google Nexus 4", "Sony Xperia J", "HTC One"}
	out := make([]Summary, size)
	for i := range out {
		rtts := make([]int64, k)
		for j := range rtts {
			rtts[j] = int64(30*time.Millisecond) + int64(i*j)*int64(time.Microsecond)%int64(20*time.Millisecond)
		}
		out[i] = Summary{
			Device: models[i%len(models)], TimeMS: 1,
			Sent: k, RTTs: rtts, LayersOK: true,
			UserOverheadNS: int64(2 * time.Millisecond),
			SDIOOverheadNS: int64(11 * time.Millisecond),
			PSMInflationNS: int64(40 * time.Millisecond),
		}
	}
	return out
}

// benchLoopback prices the acceptance target on one wire: session
// summaries per second through the full loopback path (wire → decode →
// pipelines → puncture → fold), batching enabled. The summaries/sec
// metric counts summaries *folded into the store*, not just accepted.
// Identical batch content across wires keeps the JSON/binary ratio an
// apples-to-apples read.
func benchLoopback(b *testing.B, wire string) {
	const batchSize = 100
	cfg := Config{Window: -1, QueueDepth: 1024}
	if wire == WireTCP {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	s, err := Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := benchBatch(batchSize, 20)
	var raw []byte
	contentType := "application/x-ndjson"
	if wire == WireJSON {
		var body bytes.Buffer
		if err := EncodeBatch(&body, batch); err != nil {
			b.Fatal(err)
		}
		raw = body.Bytes()
	} else {
		if raw, err = AppendBinaryBatch(nil, batch); err != nil {
			b.Fatal(err)
		}
		contentType = BinaryContentType
	}
	client := &http.Client{Timeout: 30 * time.Second}
	ingestURL, err := url.Parse(s.URL() + "/v1/ingest")
	if err != nil {
		b.Fatal(err)
	}

	// The posting client shares the benchmark host's core with the
	// server, so every microsecond it burns reads as lost server
	// throughput. Each worker reuses one request and one body reader
	// across posts (requests are sequential per worker, so the reuse is
	// safe) instead of re-parsing the URL and reallocating both per
	// POST the way client.Post does.
	newPoster := func() func() error {
		rd := bytes.NewReader(raw)
		req := &http.Request{
			Method:        http.MethodPost,
			URL:           ingestURL,
			Host:          ingestURL.Host,
			Header:        http.Header{"Content-Type": {contentType}},
			Body:          io.NopCloser(rd),
			ContentLength: int64(len(raw)),
		}
		req.GetBody = func() (io.ReadCloser, error) {
			rd.Seek(0, io.SeekStart)
			return io.NopCloser(rd), nil
		}
		return func() error {
			for {
				rd.Seek(0, io.SeekStart)
				resp, err := client.Do(req)
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusAccepted {
					return nil
				}
				if resp.StatusCode != http.StatusServiceUnavailable {
					return fmt.Errorf("status %s", resp.Status)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		if wire == WireTCP {
			// One long-lived conn per worker, as a real device would hold.
			conn, err := net.Dial("tcp", s.TCPAddr())
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			var status [1]byte
			for pb.Next() {
				for {
					if _, err := conn.Write(raw); err != nil {
						b.Error(err)
						return
					}
					if _, err := io.ReadFull(conn, status[:]); err != nil {
						b.Error(err)
						return
					}
					if status[0] == tcpStatusAccepted {
						break
					}
					if status[0] != tcpStatusBusy {
						b.Errorf("tcp status %d", status[0])
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			return
		}
		postHTTP := newPoster()
		for pb.Next() {
			if err := postHTTP(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	// Include the drain so the metric reflects summaries actually folded.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	folded := s.metrics.FoldedSummaries.Load()
	if folded != int64(b.N)*batchSize {
		b.Fatalf("folded %d of %d summaries", folded, int64(b.N)*batchSize)
	}
	b.ReportMetric(float64(folded)/elapsed.Seconds(), "summaries/sec")
	b.ReportMetric(float64(s.metrics.FoldedSamples.Load())/elapsed.Seconds(), "rtts/sec")
}

func BenchmarkIngestLoopback(b *testing.B)       { benchLoopback(b, WireJSON) }
func BenchmarkIngestLoopbackBinary(b *testing.B) { benchLoopback(b, WireBinary) }
func BenchmarkIngestLoopbackTCP(b *testing.B)    { benchLoopback(b, WireTCP) }

// benchRun is one same-cell run of the bench batch, pre-grouped the
// way enqueue groups a wire batch before handing it to a fold worker.
type benchRun struct {
	key  Key
	hash uint64
	sums []Summary
}

func groupBenchRuns(st *Store, batch []Summary) []benchRun {
	idx := map[Key]int{}
	var runs []benchRun
	for i := range batch {
		k := st.KeyFor(&batch[i])
		r, ok := idx[k]
		if !ok {
			r = len(runs)
			idx[k] = r
			runs = append(runs, benchRun{key: k, hash: keyHash(k)})
		}
		runs[r].sums = append(runs[r].sums, batch[i])
	}
	return runs
}

// BenchmarkStoreFold prices the pure fold path (no HTTP, no decode) as
// the pipelines drive it: the batch pre-grouped into same-cell runs,
// each run folded under one stripe-lock acquisition via FoldRun with a
// warm worker scratch. ns/op is per summary; steady state
// must be allocation-free.
func BenchmarkStoreFold(b *testing.B) {
	b.ReportAllocs()
	st := NewStore(0, 0)
	p := NewPuncturerStore(nil)
	batch := benchBatch(100, 20)
	runs := groupBenchRuns(st, batch)
	var fs foldScratch
	var atts []puncture.Attribution
	corrs := make([]time.Duration, len(batch))
	srcs := make([]CorrectionSource, len(batch))
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		for _, r := range runs {
			atts = p.CorrectionRun(r.sums, corrs[:len(r.sums)], srcs[:len(r.sums)], atts)
			if st.FoldRun(r.key, r.hash, r.sums, corrs[:len(r.sums)], srcs[:len(r.sums)], &fs) == 0 {
				b.Fatal("run dropped")
			}
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "summaries/sec")
}

// BenchmarkStoreFoldSerial prices the same work through the
// per-summary Fold entry point — the pre-batching fold path, kept as
// the denominator for the lock-amortization win (and still what
// single-summary callers pay).
func BenchmarkStoreFoldSerial(b *testing.B) {
	b.ReportAllocs()
	st := NewStore(0, 0)
	p := NewPuncturerStore(nil)
	batch := benchBatch(100, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &batch[i%len(batch)]
		corr, src := p.Correction(s)
		st.Fold(s, corr, src)
	}
}

// BenchmarkDecodeBatch prices wire parsing, usually the hot half of the
// handler.
func BenchmarkDecodeBatch(b *testing.B) {
	b.ReportAllocs()
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, benchBatch(100, 20)); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(bytes.NewReader(raw), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*100/time.Since(start).Seconds(), "summaries/sec")
}

// BenchmarkDecodeBinaryBatch prices binary wire parsing — the decode
// cost a binary-wire device buys the server out of, next to
// BenchmarkDecodeBatch's JSON figure on the identical batch.
func BenchmarkDecodeBinaryBatch(b *testing.B) {
	b.ReportAllocs()
	raw, err := AppendBinaryBatch(nil, benchBatch(100, 20))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinaryBatch(bytes.NewReader(raw), 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*100/time.Since(start).Seconds(), "summaries/sec")
}

// BenchmarkEncodeBinaryBatch prices the device-side encoder — the cost
// a handset pays to save the upload bytes.
func BenchmarkEncodeBinaryBatch(b *testing.B) {
	b.ReportAllocs()
	batch := benchBatch(100, 20)
	raw, err := AppendBinaryBatch(nil, batch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendBinaryBatch(raw[:0], batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamFanout prices one broadcast round against a populated
// store: 16 subscribers each computing their delta from a distinct
// cursor after a single fold — the per-wake cost that bounds how many
// live dashboards one ingestd sustains.
func BenchmarkStreamFanout(b *testing.B) {
	b.ReportAllocs()
	const subs = 16
	st := NewStore(time.Second, 0)
	// 1024 resident cells so the delta scan pays the realistic
	// full-store walk, not an empty-map sweep.
	for i := 0; i < 1024; i++ {
		s := &Summary{Device: fmt.Sprintf("dev-%04d", i), Group: "g", Scenario: "bench",
			TimeMS: int64(i%8) * 1000, RTTs: []int64{int64(30 * time.Millisecond)}, Sent: 1}
		if !st.Fold(s, 0, SourceNone) {
			b.Fatal("fold dropped")
		}
	}
	probe := &Summary{Device: "dev-0000", Group: "g", Scenario: "bench",
		TimeMS: 0, RTTs: []int64{int64(30 * time.Millisecond)}, Sent: 1}
	cursors := make([]int64, subs)
	for i := range cursors {
		cursors[i] = st.Epoch()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Fold(probe, 0, SourceNone)
		for j := range cursors {
			ev, err := st.DeltasSince(cursors[j], RollupCell)
			if err != nil {
				b.Fatal(err)
			}
			cursors[j] = ev.Epoch
		}
	}
}

// BenchmarkCompaction prices one janitor pass: expire and absorb ~2048
// fine cells spread over 64 windows into their rollups.
func BenchmarkCompaction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := NewStore(time.Second, 0)
		st.EnableCompaction(16 * time.Second)
		for c := 0; c < 2048; c++ {
			s := &Summary{Device: fmt.Sprintf("dev-%02d", c%32), Group: "g", Scenario: "bench",
				TimeMS: int64(c%64) * 1000, RTTs: []int64{int64(30 * time.Millisecond)}, Sent: 1}
			if !st.Fold(s, 0, SourceNone) {
				b.Fatal("fold dropped")
			}
		}
		b.StartTimer()
		cells, _ := st.Compact(int64(65 * 1000))
		if cells == 0 {
			b.Fatal("nothing compacted")
		}
	}
}

// BenchmarkStreamCampaign prices the full pipeline end to end: simulate
// sessions, serialize, post, fold.
func BenchmarkStreamCampaign(b *testing.B) {
	sc, _ := fleet.ScenarioByName("device-mix")
	sessions := sc.Build(fleet.Params{Sessions: 32, Seed: 5, Probes: 20})
	for i := 0; i < b.N; i++ {
		s, err := Start(Config{Window: -1})
		if err != nil {
			b.Fatal(err)
		}
		lg := &LoadGen{URL: s.URL(), TimeMS: 1}
		rep, err := lg.StreamCampaign(context.Background(), fleet.Campaign{
			Name: "bench", Scenario: "device-mix", Seed: 5, Sessions: sessions,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors != 0 {
			b.Fatal(rep.FirstErrors)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
}
