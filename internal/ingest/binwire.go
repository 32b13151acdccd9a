package ingest

// Binary batch wire format. JSON lines are the debuggable default, but
// a million-device fleet posting always-on opportunistic summaries
// (MopEye-scale) is decode-bound at the server: encoding/json burns an
// order of magnitude more CPU per summary than the data warrants. This
// file defines the compact framed alternative a device-side collector
// ships when bandwidth and server CPU matter, plus its decoder — a
// hand-rolled parser facing untrusted input that reads each payload
// through wirebuf.Cursor, so every declared length is checked against a
// hard cap and against the bytes actually present BEFORE anything is
// allocated, and decode buffers are pooled so the
// hot path allocates only what the decoded summaries themselves retain.
//
// Frame layout (all integers varint unless noted; see README "Wire
// formats" for the normative description):
//
//	4 bytes magic "ACMB"
//	1 byte  version (binWireVersion)
//	uvarint summary count (≥ 1)
//	count × summary frame:
//	  uvarint payload length (≤ MaxBinarySummaryBytes)
//	  payload:
//	    1 byte flags (layers_ok | psm_active | calibrated | sketch | rtts)
//	    4 × string: uvarint length (≤ MaxKeyLen) + bytes
//	             (device, chipset, group, scenario)
//	    varint  time_ms (zigzag)
//	    uvarint sent, lost, background_sent
//	    uvarint emulated_rtt_ns
//	    8 bytes inflation (IEEE-754 bits, little endian)
//	    if layers_ok: varint user, sdio, psm overhead ns (zigzag)
//	    if rtts: uvarint n (≤ maxRTTsPerSummary), uvarint rtts[0],
//	             then n−1 × varint delta rtts[i]−rtts[i−1] (zigzag)
//	    if sketch: agg.AppendSketch form — uvarint length
//	               (≤ agg.MaxSketchBinaryBytes) + agg.Sketch binary form
//
// RTTs are delta-coded because successive probe RTTs of one session sit
// within a few ms of each other: the deltas fit 1–3 varint bytes where
// the absolute nanosecond values need 4–5. Versioning rule: a decoder
// rejects versions it does not know; additions that change the payload
// layout bump the version byte (there are no in-payload extension
// points — frames are cheap, versions are cheaper than ambiguity).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/agg"
	"repro/internal/wirebuf"
)

// BinaryContentType is the Content-Type a device posts binary batches
// with; /v1/ingest dispatches on it.
const BinaryContentType = "application/x-acutemon-batch"

const (
	binWireVersion = 1

	flagLayersOK  = 1 << 0
	flagPSMActive = 1 << 1
	flagCalibrate = 1 << 2
	flagSketch    = 1 << 3
	flagRTTs      = 1 << 4
	flagsKnown    = flagLayersOK | flagPSMActive | flagCalibrate | flagSketch | flagRTTs
)

var binMagic = [4]byte{'A', 'C', 'M', 'B'}

// MaxBinarySummaryBytes caps one summary frame's declared payload
// length. A maximal legitimate summary — four full key strings, the RTT
// cap's worth of worst-case varints, and a maximum-compression sketch —
// stays under it, so the cap only ever rejects hostile frames, and a
// frame can never make the decoder allocate more than this per summary.
const MaxBinarySummaryBytes = 1 << 20

// payloadPool recycles the per-summary payload read buffer: decode
// copies strings and RTTs out into the summary, so the scratch buffer
// itself is reusable across frames and requests.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// key reads one length-prefixed key field, capped at MaxKeyLen before
// the copy (key fields mint store cells, so their cap is enforced at
// the wire even before Validate sees the summary), and interns it.
func (a *wireAlloc) key(d *wirebuf.Cursor) (string, error) {
	b, err := d.Field(MaxKeyLen)
	if err != nil {
		return "", err
	}
	return a.str(b), nil
}

// AppendBinarySummary appends one summary's frame (length prefix +
// payload) to dst. The device-side encoder is deliberately allocation-
// light — a handset batching summaries on the radio's schedule should
// spend its battery on the radio, not the encoder.
func AppendBinarySummary(dst []byte, s *Summary) ([]byte, error) {
	var flags byte
	if s.LayersOK {
		flags |= flagLayersOK
	}
	if s.PSMActive {
		flags |= flagPSMActive
	}
	if s.Calibrated {
		flags |= flagCalibrate
	}
	if s.Sketch != nil {
		flags |= flagSketch
	}
	if len(s.RTTs) > 0 {
		flags |= flagRTTs
	}

	// Build the payload after a placeholder so the length prefix can be
	// written without a second buffer; lengths are small enough that
	// re-appending the tail after the varint costs less than a copy
	// through an intermediate.
	payload := payloadPool.Get().(*[]byte)
	p := (*payload)[:0]
	p = append(p, flags)
	for _, key := range [...]string{s.Device, s.Chipset, s.Group, s.Scenario} {
		p = wirebuf.AppendString(p, key)
	}
	p = binary.AppendUvarint(p, wirebuf.Zigzag(s.TimeMS))
	p = binary.AppendUvarint(p, uint64(s.Sent))
	p = binary.AppendUvarint(p, uint64(s.Lost))
	p = binary.AppendUvarint(p, uint64(s.BackgroundSent))
	p = binary.AppendUvarint(p, uint64(s.EmulatedRTTNS))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(s.Inflation))
	if s.LayersOK {
		p = binary.AppendUvarint(p, wirebuf.Zigzag(s.UserOverheadNS))
		p = binary.AppendUvarint(p, wirebuf.Zigzag(s.SDIOOverheadNS))
		p = binary.AppendUvarint(p, wirebuf.Zigzag(s.PSMInflationNS))
	}
	if len(s.RTTs) > 0 {
		p = binary.AppendUvarint(p, uint64(len(s.RTTs)))
		p = binary.AppendUvarint(p, uint64(s.RTTs[0]))
		for i := 1; i < len(s.RTTs); i++ {
			p = binary.AppendUvarint(p, wirebuf.Zigzag(s.RTTs[i]-s.RTTs[i-1]))
		}
	}
	if s.Sketch != nil {
		p = agg.AppendSketch(p, s.Sketch)
	}

	var err error
	if len(p) > MaxBinarySummaryBytes {
		err = fmt.Errorf("%w: encoded summary is %d bytes", wirebuf.ErrFrameTooBig, len(p))
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	if cap(p) <= MaxBinarySummaryBytes {
		*payload = p[:0]
		payloadPool.Put(payload)
	}
	return dst, err
}

// AppendBinaryBatch appends a whole framed batch (header + summaries)
// to dst.
func AppendBinaryBatch(dst []byte, batch []Summary) ([]byte, error) {
	dst = append(dst, binMagic[:]...)
	dst = append(dst, binWireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	var err error
	for i := range batch {
		if dst, err = AppendBinarySummary(dst, &batch[i]); err != nil {
			return dst, fmt.Errorf("ingest: batch record %d: %w", i+1, err)
		}
	}
	return dst, nil
}

// budgetReader bounds the bytes a decode may consume from an untrusted
// stream — the raw-TCP analogue of the HTTP body cap. It counts bytes
// actually handed to the decoder, so read-ahead buffering above it
// cannot dodge the budget.
type budgetReader struct {
	r io.Reader
	n int64
}

func (b *budgetReader) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, wirebuf.ErrFrameTooBig
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	return n, err
}

// readerPool recycles the bufio layer the frame reader needs for
// varint-by-varint header reads.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 32<<10) },
}

// DecodeBinaryBatch parses one framed binary batch and validates every
// record, mirroring DecodeBatch. maxSummaries <= 0 means unlimited;
// maxBytes > 0 bounds the total bytes consumed (callers whose reader is
// already capped, like the HTTP handler under MaxBytesReader, pass 0).
// Trailing bytes after the declared count are an error — a frame is the
// whole message on this path.
func DecodeBinaryBatch(r io.Reader, maxSummaries int, maxBytes int64) ([]Summary, error) {
	if maxBytes > 0 {
		r = &budgetReader{r: r, n: maxBytes}
	}
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	out, err := readBinaryBatch(br, maxSummaries)
	if err != nil {
		return nil, err
	}
	// A frame that consumed its whole budget ends the readable stream, so
	// an exhausted budget at this probe is indistinguishable from (and as
	// acceptable as) a clean EOF — the cap's job, bounding consumption,
	// is already done.
	if _, err := br.ReadByte(); err != io.EOF && err != wirebuf.ErrFrameTooBig {
		return nil, errors.New("ingest: binary batch: trailing data after declared count")
	}
	return out, nil
}

// readBinaryBatch reads exactly one framed batch off br, leaving the
// stream positioned after it — the shared core under DecodeBinaryBatch
// and the raw-TCP conn loop (where frames arrive back to back). An
// io.EOF before the first magic byte is returned as io.EOF so stream
// callers can tell a clean close from a torn frame.
func readBinaryBatch(br *bufio.Reader, maxSummaries int) ([]Summary, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("ingest: binary batch header: %w", err)
	}
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return nil, fmt.Errorf("ingest: binary batch header: %w", noEOF(err))
	}
	if [4]byte(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("ingest: binary batch: bad magic %q", hdr[:4])
	}
	if hdr[4] != binWireVersion {
		return nil, fmt.Errorf("ingest: binary batch: unknown version %d", hdr[4])
	}
	count, err := wirebuf.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("ingest: binary batch count: %w", noEOF(err))
	}
	if count == 0 {
		return nil, errors.New("ingest: empty batch")
	}
	if maxSummaries > 0 && count > uint64(maxSummaries) {
		return nil, fmt.Errorf("ingest: batch exceeds %d summaries", maxSummaries)
	}
	// The slice grows with actually-decoded frames, never with the
	// declared count — a hostile count cannot pre-size an allocation.
	prealloc := count
	if prealloc > 1024 {
		prealloc = 1024
	}
	out := make([]Summary, 0, prealloc)

	payload := payloadPool.Get().(*[]byte)
	al := wireAllocPool.Get().(*wireAlloc)
	defer func() {
		if cap(*payload) <= MaxBinarySummaryBytes {
			payloadPool.Put(payload)
		}
		wireAllocPool.Put(al)
	}()
	for i := uint64(0); i < count; i++ {
		plen, err := wirebuf.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: length: %w", i+1, noEOF(err))
		}
		if plen > MaxBinarySummaryBytes {
			return nil, fmt.Errorf("ingest: batch record %d: %w: %d bytes", i+1, wirebuf.ErrFrameTooBig, plen)
		}
		if uint64(cap(*payload)) < plen {
			*payload = make([]byte, plen)
		}
		buf := (*payload)[:plen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", i+1, noEOF(err))
		}
		var s Summary
		if err := decodeBinarySummary(buf, &s, al); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", i+1, err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", i+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// noEOF upgrades a bare io.EOF mid-structure to ErrUnexpectedEOF so a
// truncated frame never reads as a clean end of input.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// counter reads a non-negative counter, capped so it can round-trip
// through the int fields Validate range-checks.
func counter(d *wirebuf.Cursor) (int, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: counter %d", wirebuf.ErrFrameTooBig, v)
	}
	return int(v), nil
}

// decodeBinarySummary parses one payload into s. Allocation discipline:
// the only allocations are the strings (interned through al), the
// exactly-sized RTT slice (its count capped both structurally and by
// the bytes present), and the sketch (its own decoder enforces the
// centroid caps).
func decodeBinarySummary(buf []byte, s *Summary, al *wireAlloc) error {
	d := wirebuf.NewCursor(buf)
	flags, err := d.Byte()
	if err != nil {
		return err
	}
	if flags&^byte(flagsKnown) != 0 {
		return fmt.Errorf("ingest: binary summary: unknown flag bits %#x", flags&^byte(flagsKnown))
	}
	s.LayersOK = flags&flagLayersOK != 0
	s.PSMActive = flags&flagPSMActive != 0
	s.Calibrated = flags&flagCalibrate != 0

	if s.Device, err = al.key(&d); err != nil {
		return fmt.Errorf("device: %w", err)
	}
	if s.Chipset, err = al.key(&d); err != nil {
		return fmt.Errorf("chipset: %w", err)
	}
	if s.Group, err = al.key(&d); err != nil {
		return fmt.Errorf("group: %w", err)
	}
	if s.Scenario, err = al.key(&d); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.TimeMS, err = d.Varint(); err != nil {
		return fmt.Errorf("time_ms: %w", err)
	}
	if s.Sent, err = counter(&d); err != nil {
		return fmt.Errorf("sent: %w", err)
	}
	if s.Lost, err = counter(&d); err != nil {
		return fmt.Errorf("lost: %w", err)
	}
	if s.BackgroundSent, err = counter(&d); err != nil {
		return fmt.Errorf("background_sent: %w", err)
	}
	if s.EmulatedRTTNS, err = d.Uint63(); err != nil {
		return fmt.Errorf("emulated_rtt_ns: %w", err)
	}
	if s.Inflation, err = d.Float64(); err != nil {
		return fmt.Errorf("inflation: %w", err)
	}
	if s.LayersOK {
		if s.UserOverheadNS, err = d.Varint(); err != nil {
			return fmt.Errorf("user_overhead_ns: %w", err)
		}
		if s.SDIOOverheadNS, err = d.Varint(); err != nil {
			return fmt.Errorf("sdio_overhead_ns: %w", err)
		}
		if s.PSMInflationNS, err = d.Varint(); err != nil {
			return fmt.Errorf("psm_inflation_ns: %w", err)
		}
	}
	if flags&flagRTTs != 0 {
		n, err := d.Uvarint()
		if err != nil {
			return fmt.Errorf("rtt count: %w", err)
		}
		// Structural cap AND bytes-present cap (each delta is ≥ 1 byte)
		// before the slice exists.
		if n == 0 || n > maxRTTsPerSummary || n > uint64(d.Remaining()) {
			return fmt.Errorf("%w: %d RTTs", wirebuf.ErrFrameTooBig, n)
		}
		rtts := al.int64s(int(n))
		if rtts[0], err = d.Uint63(); err != nil {
			return fmt.Errorf("rtt[0]: %w", err)
		}
		for i := 1; i < int(n); i++ {
			delta, err := d.Varint()
			if err != nil {
				return fmt.Errorf("rtt[%d]: %w", i, err)
			}
			rtts[i] = rtts[i-1] + delta
		}
		s.RTTs = rtts
	}
	if flags&flagSketch != 0 {
		if s.Sketch, err = agg.ReadSketch(&d); err != nil {
			return err
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("ingest: binary summary: %d trailing bytes", d.Remaining())
	}
	return nil
}
