package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
)

// fuzzSeedBatches are the structured seeds the fuzz targets start
// from: a plain batch, a sketch carrier, and an everything-set record —
// enough structure that the fuzzer's mutations reach deep decoder
// states instead of dying at the header.
func fuzzSeedBatches() [][]Summary {
	sk := agg.NewSketch(0)
	for i := 0; i < 100; i++ {
		sk.AddDuration(time.Duration(i) * time.Millisecond)
	}
	return [][]Summary{
		{{Device: "Google Nexus 5", Sent: 2, TimeMS: 1,
			RTTs: []int64{int64(30 * time.Millisecond), int64(31 * time.Millisecond)}}},
		{{Device: "HTC One", Sent: 100, Sketch: sk}},
		{{Device: "Sony Xperia J", Chipset: "BCM4330", Group: "g", Scenario: "s",
			TimeMS: 123, Sent: 3, Lost: 1, BackgroundSent: 2,
			EmulatedRTTNS: int64(30 * time.Millisecond), Inflation: 2.5,
			RTTs:     []int64{int64(40 * time.Millisecond)},
			LayersOK: true, UserOverheadNS: int64(2 * time.Millisecond),
			SDIOOverheadNS: int64(11 * time.Millisecond), PSMInflationNS: int64(5 * time.Millisecond),
			PSMActive: true, Calibrated: true}},
	}
}

// FuzzDecodeBatch hammers the JSON wire decoder with arbitrary bytes:
// it must never panic, and whatever it accepts must pass Validate and
// survive a canonical re-encode → re-decode round trip.
func FuzzDecodeBatch(f *testing.F) {
	for _, batch := range fuzzSeedBatches() {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, batch); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"device":"x","sent":1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(bytes.NewReader(data), 1000)
		if err != nil {
			return
		}
		for i := range batch {
			if verr := batch[i].Validate(); verr != nil {
				t.Fatalf("accepted record %d fails Validate: %v", i, verr)
			}
		}
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, batch); err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if _, err := DecodeBatch(bytes.NewReader(buf.Bytes()), 0); err != nil {
			t.Fatalf("canonical re-encode does not re-decode: %v", err)
		}
	})
}

// referenceDecodeBatch is the language DecodeBatch must accept, and
// the summaries it must return: an encoding/json Decoder loop over
// *Summary plus Validate, the decoder DecodeBatch replaced.
func referenceDecodeBatch(data []byte, maxSummaries int) ([]Summary, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []Summary
	for {
		var s Summary
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		out = append(out, s)
		if maxSummaries > 0 && len(out) > maxSummaries {
			return nil, errors.New("too many summaries")
		}
	}
	if len(out) == 0 {
		return nil, errors.New("empty batch")
	}
	return out, nil
}

// diffMaxSummaries is small so the differential fuzz reaches the
// summary cap as well as everything below it.
const diffMaxSummaries = 4

// checkDecodeMatchesReference fails t unless DecodeBatch and the
// encoding/json reference agree on data: both refuse it, or both
// accept it with deeply equal summaries. Error texts may differ.
func checkDecodeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := DecodeBatch(bytes.NewReader(data), diffMaxSummaries)
	want, wantErr := referenceDecodeBatch(data, diffMaxSummaries)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("verdicts differ on %q:\n scanner: %v\n encoding/json: %v", data, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("summaries differ on %q:\n scanner: %+v\n encoding/json: %+v", data, got, want)
	}
}

// jsonTraps are hand-written inputs at the subtle edges of
// encoding/json's language: key folding and escapes, repeated keys
// (including rtts_ns arrays that reuse an earlier array's backing),
// nulls, non-integers in integer fields, surrogates and invalid UTF-8,
// nesting at the depth limit, cap-sized values a later key replaces,
// and what may sit between and around the objects.
func jsonTraps() []string {
	long := strings.Repeat("a", MaxKeyLen+1)
	nest := func(n int) string {
		return `{"device":"a","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + "}"
	}
	return []string{
		// Key matching: exact, folded, escaped, Unicode folds.
		`{"DEVICE":"a","SENT":1}`, `{"Device":"a"}`, `{"device":"a","DEVICE":"b"}`,
		`{"d\u0065vice":"a"}`, `{"\u0044EVICE":"a"}`, `{"device":"a","\u017fent":2,"rtts_ns":[1,2]}`,
		`{"device":"a","sent":1,"s\u212aetch":null}`, `{"dev\u0130ce":"a"}`, `{"dev\u0131ce":"a"}`,
		`{"device":"a","time_ms":1,"time_MS":2,"Time_Ms":3}`,
		// Repeated keys and nulls.
		`{"device":"a","device":"b"}`, `{"device":"a","device":null}`, `{"device":null}`, `null`,
		`{"device":"a","sent":2,"sent":null,"inflation":null,"layers_ok":null,"sketch":null,"rtts_ns":null,"chipset":null}`,
		`{"device":"a","sent":2,"rtts_ns":[5,6],"rtts_ns":[null]}`,
		`{"device":"a","sent":3,"rtts_ns":[5,6,7],"rtts_ns":[1],"rtts_ns":[1,null]}`,
		`{"device":"a","sent":2,"rtts_ns":[5,6],"rtts_ns":null,"rtts_ns":[null]}`,
		`{"device":"a","sent":2,"rtts_ns":[5],"rtts_ns":[],"rtts_ns":[null,null]}`,
		`{"device":"a","rtts_ns":[]}`, `{"device":"a","sent":1,"rtts_ns":[null]}`,
		`{"device":"a","layers_ok":true,"layers_ok":false,"psm_active":true,"calibrated":null}`,
		// Integer and float fields.
		`{"device":"a","sent":1e2}`, `{"device":"a","sent":1.0}`, `{"device":"a","sent":-0}`,
		`{"device":"a","sent":01}`, `{"device":"a","sent":"1"}`, `{"device":"a","sent":true}`,
		`{"device":"a","time_ms":9223372036854775807}`, `{"device":"a","time_ms":9223372036854775808}`,
		`{"device":"a","time_ms":-9223372036854775808}`, `{"device":"a","time_ms":-9223372036854775809}`,
		`{"device":"a","time_ms":-}`, `{"device":"a","time_ms":- 1}`, `{"device":"a","rtts_ns":[1.5]}`,
		`{"device":"a","inflation":1e400}`, `{"device":"a","inflation":1e-400}`, `{"device":"a","inflation":-0}`,
		`{"device":"a","inflation":2.5E+1}`, `{"device":"a","inflation":1.}`, `{"device":"a","inflation":.5}`,
		`{"device":"a","inflation":"2"}`, `{"device":"a","inflation":0.1234567890123456789012345678901234567890}`,
		// Strings: escapes, surrogates, invalid UTF-8, control characters.
		`{"device":"\ud800"}`, `{"device":"\udc00x"}`, `{"device":"\ud83d\ude00"}`,
		`{"device":"\ud800\ud800"}`, `{"device":"\ud800\u0041"}`, `{"device":"\ud800\\u0041"}`,
		"{\"device\":\"\xff\"}", "{\"device\":\"\xed\xa0\x80\"}", "{\"device\":\"\xef\xbf\xbd\"}",
		`{"device":"\\u0041"}`, "{\"device\":\"a\tb\"}", `{"device":"\u0000"}`, `{"device":"\'"}`,
		`{"device":"\/\b\f\n\r\t\"\\"}`, `{"device":"\u00e9\u00E9"}`, `{"device":"\u12"}`,
		"{\"device\":\"a\x7f\"}", `{"device":"Nexus \u2603 ☃"}`,
		// Unknown fields, nesting at the limit, sketches.
		`{"device":"a","x":{"y":[1,"z",true,false,null,{}],"w":-1.5e-3}}`, `{"device":"a","x":[1,]}`,
		`{"device":"a","x":{"y"}}`, `{"device":"a","x":{1:2}}`, `{"device":"a","x":tru}`,
		nest(maxNestingDepth - 1), nest(maxNestingDepth), `{"device":"a","sent":1,"sketch":"x"}`,
		`{"device":"a","sent":1,"sketch":{}}`, `{"device":"a","sent":1,"sketch":[]}`,
		`{"device":"a","sent":1,"sketch":{"compression":100,"count":1,"min":5,"max":5,"centroids":[{"m":5,"w":1}]},"sketch":null}`,
		`{"device":"a","sent":1,"sketch":{"compression":100,"count":1,"min":5,"max":5,"centroids":[{"m":5,"w":1}]}}`,
		`{"device":"a","sent":1,"rtts_ns":[1],"sketch":{"compression":100,"count":1,"min":5,"max":5,"centroids":[{"m":5,"w":1}]}}`,
		// Caps that a later repeated key lifts, and caps that stand.
		`{"device":"` + long + `","device":"a"}`, `{"device":"` + long + `"}`,
		`{"device":"a","group":"` + long + `","group":null}`,
		`{"device":"` + strings.Repeat(`\u0061`, MaxKeyLen+1) + `","device":"b"}`,
		`{"device":"` + strings.Repeat(`\u0061`, MaxKeyLen) + `"}`,
		`{"device":"a","` + long + `":1}`,
		// Between and around objects.
		`{}{}`, `{"device":"a"}{"device":"b"}`, "{\"device\":\"a\"}\r\n\t {\"device\":\"b\"}\n",
		`{"device":"a"} x`, "{\"device\":\"a\",\"sent\":1}\n!", `{"device":"a"}]`, `{"device":"a"},`,
		`{"device":"a",}`, `[{"device":"a"}]`, `"str"`, `1`, ` `, ``, "\xef\xbb\xbf{\"device\":\"a\"}",
		`{"device":"a"}{"device":"a"}{"device":"a"}{"device":"a"}`,
		`{"device":"a"}{"device":"a"}{"device":"a"}{"device":"a"}{"device":"a"}`,
		`{"device":"a"}{"device":"a"}{"device":"a"}{"device":"a"}{"device":"a"`,
		`{"device" "a"}`, `{"device":"a"`, `{"device":"a`, `{"device`, `{`,
	}
}

// committedCorpus reads the []byte seeds of another fuzz target's
// committed corpus (testdata/fuzz/<target>), so a new target starts
// from everything the old one learned.
func committedCorpus(f *testing.F, target string) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			f.Fatalf("%s: not a one-value fuzz corpus file", p)
		}
		quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
		quoted, ok2 := strings.CutSuffix(quoted, ")")
		v, err := strconv.Unquote(quoted)
		if !ok || !ok2 || err != nil {
			f.Fatalf("%s: cannot read []byte seed %q", p, lines[1])
		}
		out = append(out, []byte(v))
	}
	if len(out) == 0 {
		f.Fatalf("no committed corpus for %s", target)
	}
	return out
}

// FuzzDecodeBatchMatchesEncodingJSON holds DecodeBatch's scanner to the
// encoding/json decoder it replaced: for every input, the scanner
// accepts exactly when the reference accepts, and both return deeply
// equal summaries.
func FuzzDecodeBatchMatchesEncodingJSON(f *testing.F) {
	for _, batch := range fuzzSeedBatches() {
		var buf bytes.Buffer
		if err := EncodeBatch(&buf, batch); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, seed := range committedCorpus(f, "FuzzDecodeBatch") {
		f.Add(seed)
	}
	for _, trap := range jsonTraps() {
		f.Add([]byte(trap))
	}
	f.Fuzz(checkDecodeMatchesReference)
}

// referenceEncodeBatch is the encoder AppendBatch replaced, and the
// bytes it must write: an encoding/json Encoder loop over &batch[i],
// stopping at the first error with what it wrote before it.
func referenceEncodeBatch(batch []Summary) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range batch {
		if err := enc.Encode(&batch[i]); err != nil {
			return buf.Bytes(), err
		}
	}
	return buf.Bytes(), nil
}

// checkEncodeMatchesReference fails t unless AppendBatch (appending
// after existing bytes) and EncodeBatch both write batch exactly as the
// encoding/json reference does, and fail exactly when it fails, with
// the same error text. It returns the encoded bytes.
func checkEncodeMatchesReference(t *testing.T, batch []Summary) []byte {
	t.Helper()
	want, wantErr := referenceEncodeBatch(batch)
	errText := fmt.Sprint // "<nil>" for no error
	const prefix = "prior bytes\n"
	got, gotErr := AppendBatch([]byte(prefix), batch)
	if !bytes.HasPrefix(got, []byte(prefix)) || !bytes.Equal(got[len(prefix):], want) || errText(gotErr) != errText(wantErr) {
		t.Fatalf("AppendBatch differs from encoding/json on %+v:\n got  %q, %v\n want %q, %v",
			batch, got, gotErr, want, wantErr)
	}
	var buf bytes.Buffer
	if err := EncodeBatch(&buf, batch); !bytes.Equal(buf.Bytes(), want) || errText(err) != errText(wantErr) {
		t.Fatalf("EncodeBatch differs from encoding/json on %+v:\n got  %q, %v\n want %q, %v",
			batch, buf.Bytes(), err, want, wantErr)
	}
	return want
}

// FuzzAppendBatchMatchesEncodingJSON holds the hand-written JSON-lines
// encoder to the encoding/json loop it replaced. Every batch
// DecodeBatch accepts must encode to the same bytes and decode back
// deeply equal; the raw input is also encoded as a summary whose
// strings and inflation no decoder would yield (invalid UTF-8, control
// bytes, NaN, ±Inf, subnormals), where both must still agree.
func FuzzAppendBatchMatchesEncodingJSON(f *testing.F) {
	for _, batch := range fuzzSeedBatches() {
		body, err := referenceEncodeBatch(batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range committedCorpus(f, "FuzzDecodeBatch") {
		f.Add(seed)
	}
	for _, trap := range jsonTraps() {
		f.Add([]byte(trap))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if batch, err := DecodeBatch(bytes.NewReader(data), 0); err == nil {
			body := checkEncodeMatchesReference(t, batch)
			back, err := DecodeBatch(bytes.NewReader(body), 0)
			if err != nil || !reflect.DeepEqual(back, batch) {
				t.Fatalf("re-encoded batch does not decode back (%v):\n got  %+v\n want %+v", err, back, batch)
			}
		}
		var word [8]byte
		copy(word[:], data)
		bits := binary.LittleEndian.Uint64(word[:])
		half := len(data) / 2
		raw := Summary{Device: string(data), Chipset: string(data[:half]), Group: string(data[half:]),
			Scenario: strings.ToUpper(string(data)), TimeMS: int64(bits), Sent: int(int32(bits)),
			Inflation: math.Float64frombits(bits), LayersOK: bits&1 != 0, Calibrated: bits&2 != 0}
		if bits&4 != 0 {
			raw.RTTs = []int64{}
		}
		checkEncodeMatchesReference(t, []Summary{raw})
	})
}

// TestAppendBatchHardCases pins AppendBatch to encoding/json on the
// edges of its output: every escape, invalid UTF-8, U+2028/U+2029,
// floats at both 'e' thresholds, NaN and ±Inf (an error, after the
// summaries before it), nil against empty rtts_ns, and sketches.
func TestAppendBatchHardCases(t *testing.T) {
	sk := agg.NewSketch(0)
	for i := 1; i <= 50; i++ {
		sk.AddDuration(time.Duration(i) * 7 * time.Microsecond)
	}
	badSketch := agg.NewSketch(0)
	badSketch.MaxV = math.Inf(1)
	base := func(mod func(*Summary)) Summary {
		s := Summary{Device: "Google Nexus 5", Sent: 1, RTTs: []int64{30_000_000}}
		mod(&s)
		return s
	}
	var cases []Summary
	for _, str := range []string{
		"", "plain", `quote " backslash \ slash /`, "<script>&amp;</script>", "AT&T", "a<b", "a>b", `a"`, `a\`,
		"\x00\x01\x1f\b\f\n\r\t\x7f", "\xff", "a\xe2\x82", "\xed\xa0\x80", "\xef\xbf\xbd",
		"line\u2028para\u2029end", "Nexus ☃ é 😀", strings.Repeat("x<", 100),
	} {
		cases = append(cases, base(func(s *Summary) {
			s.Device, s.Chipset, s.Group, s.Scenario = "d"+str, str, str+"g", str
		}))
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 2.5, 1.0 / 3, 123456789.125,
		1e-6, 9.999999e-7, 1e-7, -1e-7, 1e-10, 1.5e-300, 5e-324, math.SmallestNonzeroFloat64 * 3,
		1e20, 999999999999999999999, 1e21, -1e21, 1.5e300, math.MaxFloat64,
	} {
		cases = append(cases, base(func(s *Summary) { s.Inflation = f }))
	}
	cases = append(cases, everyFieldSet(t),
		base(func(s *Summary) { s.RTTs = nil }),
		base(func(s *Summary) { s.RTTs = []int64{} }),
		base(func(s *Summary) { s.RTTs = []int64{0, -1, math.MaxInt64, math.MinInt64} }),
		base(func(s *Summary) { s.RTTs, s.Sketch, s.Sent = nil, sk, 50 }),
		base(func(s *Summary) {
			s.TimeMS, s.Lost, s.BackgroundSent, s.EmulatedRTTNS = -5, -1, 3, 1
			s.UserOverheadNS, s.SDIOOverheadNS, s.PSMInflationNS = math.MinInt64, -2, math.MaxInt64
			s.LayersOK, s.PSMActive, s.Calibrated = true, true, true
		}),
	)
	for _, s := range cases {
		checkEncodeMatchesReference(t, []Summary{s})
	}
	checkEncodeMatchesReference(t, cases)
	checkEncodeMatchesReference(t, nil)

	// Errors: the summaries before the failing one are kept.
	ok := base(func(*Summary) {})
	for _, bad := range []Summary{
		base(func(s *Summary) { s.Inflation = math.NaN() }),
		base(func(s *Summary) { s.Inflation = math.Inf(1) }),
		base(func(s *Summary) { s.Inflation = math.Inf(-1) }),
		base(func(s *Summary) { s.RTTs, s.Sketch = nil, badSketch }),
	} {
		body := checkEncodeMatchesReference(t, []Summary{ok, bad, ok})
		if _, err := AppendBatch(nil, []Summary{bad}); err == nil {
			t.Fatalf("inflation %v, sketch max %v: no error", bad.Inflation, bad.Sketch)
		}
		if want, _ := referenceEncodeBatch([]Summary{ok}); !bytes.Equal(body, want) {
			t.Fatalf("error batch kept %q, want the first summary %q", body, want)
		}
	}
}

// everyFieldSet returns a Summary with every field non-zero, set by
// reflection, so a field added to Summary but not to AppendBatch makes
// the encoders disagree.
func everyFieldSet(t *testing.T) Summary {
	var s Summary
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Interface().(type) {
		case string:
			f.SetString(v.Type().Field(i).Name)
		case int, int64:
			f.SetInt(int64(i + 1))
		case float64:
			f.SetFloat(float64(i) + 0.25)
		case bool:
			f.SetBool(true)
		case []int64:
			f.Set(reflect.ValueOf([]int64{int64(i)}))
		case *agg.Sketch:
			f.Set(reflect.ValueOf(agg.NewSketch(0)))
		default:
			t.Fatalf("Summary.%s: no test value for %s", v.Type().Field(i).Name, f.Type())
		}
	}
	return s
}

// hostileBinFrames builds the length-bomb frames the AM002
// decode-bounds review calls out: every uvarint a frame declares —
// record count, payload length, key length, RTT count, sketch length —
// set to an absurd value while the surrounding structure stays valid,
// so the decoder reaches each cap check and must reject before
// allocating. Kept as named seeds so the fuzz smoke run (and the
// regression test below) exercises every rejection path on every CI
// run, not only when the fuzzer rediscovers them.
func hostileBinFrames() map[string][]byte {
	hdr := []byte{'A', 'C', 'M', 'B', binWireVersion}
	maxUvarint := append(bytes.Repeat([]byte{0xff}, 9), 0x01) // 2^63-ish, valid encoding
	// emptyPrefix is a minimal payload up to the flag-gated tail: zero
	// flags patched in by callers, four empty keys, zero counters, and
	// an eight-byte zero inflation.
	emptyPrefix := func(flags byte) []byte {
		p := []byte{flags, 0, 0, 0, 0 /* keys */, 0 /* time */, 0, 0, 0 /* sent,lost,bg */, 0 /* emulated */}
		return append(p, make([]byte, 8)...) // inflation bits
	}
	frame := func(payload []byte) []byte {
		out := append([]byte{}, hdr...)
		out = append(out, 1) // one summary
		out = binary.AppendUvarint(out, uint64(len(payload)))
		return append(out, payload...)
	}
	return map[string][]byte{
		// Count says 2^63 summaries; no payload follows.
		"count-bomb": append(append([]byte{}, hdr...), maxUvarint...),
		// Payload length far over MaxBinarySummaryBytes.
		"paylen-bomb": append(append(append([]byte{}, hdr...), 1), maxUvarint...),
		// Device-key length bomb inside a tiny declared payload.
		"keylen-bomb": frame(append([]byte{0}, maxUvarint...)),
		// RTT count bomb after an otherwise-valid fixed section.
		"rttcount-bomb": frame(append(emptyPrefix(flagRTTs), maxUvarint...)),
		// Sketch length bomb after an otherwise-valid fixed section.
		"sketchlen-bomb": frame(append(emptyPrefix(flagSketch), maxUvarint...)),
	}
}

// TestHostileBinaryFramesRejected pins the cap checks: every length
// bomb is an error, never an allocation the attacker sized.
func TestHostileBinaryFramesRejected(t *testing.T) {
	for name, data := range hostileBinFrames() {
		if _, err := DecodeBinaryBatch(bytes.NewReader(data), 1000, int64(len(data))+1); err == nil {
			t.Errorf("%s: decoder accepted a length-bomb frame", name)
		}
	}
}

// FuzzDecodeBinaryBatch hammers the hand-rolled binary decoder — the
// untrusted-input surface this PR adds. Beyond no-panic, it checks the
// bounds discipline's visible contract: anything accepted validates and
// round-trips through the encoder byte-compatibly (decode → encode →
// decode gives the same records).
func FuzzDecodeBinaryBatch(f *testing.F) {
	for _, batch := range fuzzSeedBatches() {
		frame, err := AppendBinaryBatch(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// A truncated and a bit-flipped variant seed the rejection paths.
		f.Add(frame[:len(frame)/2])
		flipped := append([]byte{}, frame...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	for _, frame := range hostileBinFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBinaryBatch(bytes.NewReader(data), 1000, int64(len(data))+1)
		if err != nil {
			return
		}
		for i := range batch {
			if verr := batch[i].Validate(); verr != nil {
				t.Fatalf("accepted record %d fails Validate: %v", i, verr)
			}
		}
		again, err := AppendBinaryBatch(nil, batch)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		batch2, err := DecodeBinaryBatch(bytes.NewReader(again), 1000, 0)
		if err != nil {
			t.Fatalf("re-encoded batch does not re-decode: %v", err)
		}
		if len(batch2) != len(batch) {
			t.Fatalf("round trip changed record count: %d → %d", len(batch), len(batch2))
		}
	})
}
