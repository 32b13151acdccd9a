package ingest

// JSON-lines batch decoder. A crowd-scale collector takes JSON posts
// from untrusted phones, so the per-summary decode cost multiplies by
// the fleet: reflection-driven encoding/json spent several times the
// binary wire's CPU and eight allocations per summary on a record whose
// shape never changes. jsonScanner is a hand-written scanner for
// Summary's fixed fields. It reads the body once into a pooled buffer,
// scans it in place, takes key strings and RTT slices from the wireAlloc
// the binary wire uses, and hands only an embedded "sketch" value to
// agg.Sketch.UnmarshalJSON.
//
// The accepted language is exactly encoding/json's (a Decoder loop over
// *Summary) followed by Validate, and an accepted batch decodes to the
// same summaries; FuzzDecodeBatchMatchesEncodingJSON holds the two to
// that. The parts of encoding/json's behaviour this mirrors:
//
//   - keys are unescaped, then matched exactly or, failing that,
//     case-insensitively (bytes.EqualFold, which is encoding/json's
//     folding), and the last of repeated keys wins;
//   - null leaves a scalar field unchanged and sets rtts_ns and sketch
//     to nil; "rtts_ns":[] is an empty, non-nil slice;
//   - a repeated rtts_ns array reuses the previous array's backing, so
//     a null element keeps the value an earlier array left at its index;
//   - integer fields refuse fractions, exponents and overflow; the float
//     field takes what strconv.ParseFloat takes;
//   - strings unescape \uXXXX surrogate pairs, and lone surrogates and
//     invalid UTF-8 become U+FFFD; raw control characters are refused;
//   - unknown fields are skipped with full syntax checks, up to the
//     10000-level nesting limit counted from the top-level object;
//   - objects may sit back to back ({}{}); any other top-level value
//     fails (as a type error, or as a zero Summary failing Validate).
//
// Every rejection aborts the batch, so the scanner stops at the first
// problem of any kind — syntax, type, cap or Validate — where
// encoding/json would finish the syntax check first: the verdict is the
// same, only the error text differs.
//
// Caps apply before anything grows: a key string is unescaped into a
// fixed buffer and refused once it passes MaxKeyLen, and an rtts_ns
// array stores at most maxRTTsPerSummary values. A value past its cap
// is refused only if it is still the field's value when the object
// closes, since a later repeated key would replace it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/agg"
)

// maxNestingDepth is encoding/json's limit on nested arrays and
// objects, counted from the top-level value.
const maxNestingDepth = 10000

// maxPooledBody and maxPooledRTTs cap the scratch a pooled scanner
// keeps: a larger body or RTT array is decoded with scratch the pool
// then drops, so one outsized post cannot pin its high-water mark in
// every pool slot.
const (
	maxPooledBody = 1 << 20
	maxPooledRTTs = 4096
)

// Summary's JSON fields, indexing jsonFieldNames.
const (
	fDevice = iota
	fChipset
	fGroup
	fScenario
	fTimeMS
	fRTTs
	fSketch
	fSent
	fLost
	fBackgroundSent
	fEmulatedRTTNS
	fInflation
	fLayersOK
	fUserOverheadNS
	fSDIOOverheadNS
	fPSMInflationNS
	fPSMActive
	fCalibrated
	fUnknown
)

// jsonFieldNames are Summary's json tag names (TestJSONFieldNames pins
// them to the struct).
var jsonFieldNames = [fUnknown][]byte{
	[]byte("device"), []byte("chipset"), []byte("group"), []byte("scenario"),
	[]byte("time_ms"), []byte("rtts_ns"), []byte("sketch"), []byte("sent"),
	[]byte("lost"), []byte("background_sent"), []byte("emulated_rtt_ns"),
	[]byte("inflation"), []byte("layers_ok"), []byte("user_overhead_ns"),
	[]byte("sdio_overhead_ns"), []byte("psm_inflation_ns"), []byte("psm_active"),
	[]byte("calibrated"),
}

// jsonField resolves an unescaped object key to its field.
func jsonField(key []byte) int {
	switch string(key) { // converting in a switch does not allocate
	case "device":
		return fDevice
	case "chipset":
		return fChipset
	case "group":
		return fGroup
	case "scenario":
		return fScenario
	case "time_ms":
		return fTimeMS
	case "rtts_ns":
		return fRTTs
	case "sketch":
		return fSketch
	case "sent":
		return fSent
	case "lost":
		return fLost
	case "background_sent":
		return fBackgroundSent
	case "emulated_rtt_ns":
		return fEmulatedRTTNS
	case "inflation":
		return fInflation
	case "layers_ok":
		return fLayersOK
	case "user_overhead_ns":
		return fUserOverheadNS
	case "sdio_overhead_ns":
		return fSDIOOverheadNS
	case "psm_inflation_ns":
		return fPSMInflationNS
	case "psm_active":
		return fPSMActive
	case "calibrated":
		return fCalibrated
	}
	for f, name := range jsonFieldNames {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return fUnknown
}

// plainStringByte marks the bytes a string's fast path steps over:
// printable ASCII other than the quote and the backslash.
var plainStringByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// jsonScanner decodes one JSON-lines batch. Pooled: every buffer it
// holds is scratch the decoded summaries never alias.
type jsonScanner struct {
	body  []byte // read buffer; buf is its filled part
	buf   []byte
	pos   int
	al    *wireAlloc
	rtts  []int64                         // rtts_ns values written since the backing last reset
	stack []byte                          // open containers of a value being skipped
	unq   [MaxKeyLen + 2*utf8.UTFMax]byte // unescape scratch
}

var jsonScannerPool = sync.Pool{New: func() any { return new(jsonScanner) }}

// read fills buf with all of r.
func (sc *jsonScanner) read(r io.Reader) error {
	b := sc.body[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 16<<10)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			sc.body, sc.buf, sc.pos = b, b, 0
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func (sc *jsonScanner) release() {
	if cap(sc.body) > maxPooledBody {
		sc.body = nil
	}
	if cap(sc.rtts) > maxPooledRTTs {
		sc.rtts = nil
	}
	if sc.al != nil {
		wireAllocPool.Put(sc.al)
	}
	sc.buf, sc.al = nil, nil
	jsonScannerPool.Put(sc)
}

// batch decodes and validates every object in buf.
func (sc *jsonScanner) batch(maxSummaries int) ([]Summary, error) {
	sc.al = wireAllocPool.Get().(*wireAlloc)
	// One object per line is the wire's shape, so the line count sizes
	// the result; the cap keeps a body of bare newlines from sizing a
	// large allocation ({}{} batches just grow the slice).
	est := min(bytes.Count(sc.buf, []byte{'\n'})+1, 1024)
	if maxSummaries > 0 {
		est = min(est, maxSummaries)
	}
	out := make([]Summary, 0, est)
	for {
		sc.skipSpace()
		if sc.pos == len(sc.buf) {
			break
		}
		if maxSummaries > 0 && len(out) == maxSummaries {
			return nil, fmt.Errorf("ingest: batch exceeds %d summaries", maxSummaries)
		}
		out = append(out, Summary{})
		s := &out[len(out)-1]
		if err := sc.summary(s); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out), err)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: batch record %d: %w", len(out), err)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("ingest: empty batch")
	}
	return out, nil
}

// summary decodes the object at pos into the zero Summary s.
func (sc *jsonScanner) summary(s *Summary) error {
	if sc.peek() != '{' {
		return sc.fail("summary is not a JSON object")
	}
	sc.pos++
	var (
		rttSet  bool // rtts_ns last held an array (else nil)
		rttLen  int
		tooLong uint32 // key fields whose latest string passed MaxKeyLen
	)
	sc.rtts = sc.rtts[:0]
	sc.skipSpace()
	if sc.peek() == '}' {
		sc.pos++
		return nil
	}
	for {
		if sc.peek() != '"' {
			return sc.fail("expected object key")
		}
		key, err := sc.key()
		if err != nil {
			return err
		}
		sc.skipSpace()
		if sc.peek() != ':' {
			return sc.fail("expected ':' after object key")
		}
		sc.pos++
		sc.skipSpace()
		switch f := jsonField(key); f {
		case fDevice:
			err = sc.keyField(&s.Device, f, &tooLong)
		case fChipset:
			err = sc.keyField(&s.Chipset, f, &tooLong)
		case fGroup:
			err = sc.keyField(&s.Group, f, &tooLong)
		case fScenario:
			err = sc.keyField(&s.Scenario, f, &tooLong)
		case fTimeMS:
			err = sc.int64Field(&s.TimeMS, f)
		case fRTTs:
			switch sc.peek() {
			case 'n':
				err = sc.literal("null")
				rttSet, sc.rtts = false, sc.rtts[:0]
			case '[':
				rttSet = true
				rttLen, err = sc.rttArray()
			default:
				err = sc.typeError(f)
			}
		case fSketch:
			err = sc.sketchField(s)
		case fSent:
			err = sc.intField(&s.Sent, f)
		case fLost:
			err = sc.intField(&s.Lost, f)
		case fBackgroundSent:
			err = sc.intField(&s.BackgroundSent, f)
		case fEmulatedRTTNS:
			err = sc.int64Field(&s.EmulatedRTTNS, f)
		case fInflation:
			err = sc.floatField(&s.Inflation, f)
		case fLayersOK:
			err = sc.boolField(&s.LayersOK, f)
		case fUserOverheadNS:
			err = sc.int64Field(&s.UserOverheadNS, f)
		case fSDIOOverheadNS:
			err = sc.int64Field(&s.SDIOOverheadNS, f)
		case fPSMInflationNS:
			err = sc.int64Field(&s.PSMInflationNS, f)
		case fPSMActive:
			err = sc.boolField(&s.PSMActive, f)
		case fCalibrated:
			err = sc.boolField(&s.Calibrated, f)
		default:
			err = sc.skipValue(1)
		}
		if err != nil {
			return err
		}
		sc.skipSpace()
		c := sc.peek()
		if c != ',' && c != '}' {
			return sc.fail("expected ',' or '}' after object value")
		}
		sc.pos++
		if c == '}' {
			break
		}
		sc.skipSpace()
	}
	if tooLong != 0 {
		return fmt.Errorf("ingest: %.32s…: key field exceeds %d bytes", s.Device, MaxKeyLen)
	}
	if rttSet {
		switch {
		case rttLen > maxRTTsPerSummary:
			return fmt.Errorf("ingest: %s: %d RTTs exceeds per-session cap %d", s.Device, rttLen, maxRTTsPerSummary)
		case rttLen == 0:
			s.RTTs = []int64{}
		default:
			s.RTTs = sc.al.int64s(rttLen)
			copy(s.RTTs, sc.rtts)
		}
	}
	return nil
}

// keyField decodes a key string field (null leaves it unchanged).
func (sc *jsonScanner) keyField(dst *string, f int, tooLong *uint32) error {
	switch sc.peek() {
	case 'n':
		return sc.literal("null")
	case '"':
	default:
		return sc.typeError(f)
	}
	raw, clean, err := sc.stringLit()
	if err != nil {
		return err
	}
	fits := len(raw) <= MaxKeyLen
	if !clean {
		raw, fits = sc.unquote(raw, MaxKeyLen)
	}
	if !fits {
		*tooLong |= 1 << f
		return nil
	}
	*tooLong &^= 1 << f
	*dst = sc.al.str(raw)
	return nil
}

// int64Field decodes an integer field (null leaves it unchanged).
func (sc *jsonScanner) int64Field(dst *int64, f int) error {
	if sc.peek() == 'n' {
		return sc.literal("null")
	}
	v, err := sc.integer(f)
	if err == nil {
		*dst = v
	}
	return err
}

func (sc *jsonScanner) intField(dst *int, f int) error {
	if sc.peek() == 'n' {
		return sc.literal("null")
	}
	v, err := sc.integer(f)
	if err != nil {
		return err
	}
	if int64(int(v)) != v {
		return fmt.Errorf("json: %s: %d overflows int", jsonFieldNames[f], v)
	}
	*dst = int(v)
	return nil
}

// floatField decodes a float field (null leaves it unchanged) the way
// encoding/json does: strconv.ParseFloat over the number literal.
func (sc *jsonScanner) floatField(dst *float64, f int) error {
	switch c := sc.peek(); {
	case c == 'n':
		return sc.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return sc.typeError(f)
	}
	start := sc.pos
	if err := sc.number(); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(sc.buf[start:sc.pos]), 64)
	if err != nil {
		return fmt.Errorf("json: %s: %w", jsonFieldNames[f], err)
	}
	*dst = v
	return nil
}

// boolField decodes a bool field (null leaves it unchanged).
func (sc *jsonScanner) boolField(dst *bool, f int) error {
	switch sc.peek() {
	case 't':
		*dst = true
		return sc.literal("true")
	case 'f':
		*dst = false
		return sc.literal("false")
	case 'n':
		return sc.literal("null")
	}
	return sc.typeError(f)
}

// rttArray decodes an rtts_ns array into sc.rtts and returns its
// length. encoding/json decodes a repeated key's array into the slice
// the previous one left, so an element at an index an earlier array
// wrote keeps that value when it is null; indices never written read 0.
// Past maxRTTsPerSummary elements are checked but not stored.
func (sc *jsonScanner) rttArray() (int, error) {
	sc.pos++ // '['
	sc.skipSpace()
	if sc.peek() == ']' {
		sc.pos++
		sc.rtts = sc.rtts[:0] // [] is a fresh empty slice
		return 0, nil
	}
	for i := 0; ; i++ {
		var v int64
		null := sc.peek() == 'n'
		var err error
		if null {
			err = sc.literal("null")
		} else {
			v, err = sc.integer(fRTTs)
		}
		if err != nil {
			return 0, err
		}
		if i < maxRTTsPerSummary {
			if i == len(sc.rtts) {
				sc.rtts = append(sc.rtts, v)
			} else if !null {
				sc.rtts[i] = v
			}
		}
		sc.skipSpace()
		switch sc.peek() {
		case ',':
			sc.pos++
			sc.skipSpace()
		case ']':
			sc.pos++
			return i + 1, nil
		default:
			return 0, sc.fail("expected ',' or ']' in rtts_ns")
		}
	}
}

// sketchField checks the syntax of the sketch value, then hands it to
// agg.Sketch.UnmarshalJSON — into the sketch an earlier repeated key
// left, as encoding/json does.
func (sc *jsonScanner) sketchField(s *Summary) error {
	start := sc.pos
	if err := sc.skipValue(1); err != nil {
		return err
	}
	raw := sc.buf[start:sc.pos]
	if raw[0] == 'n' {
		s.Sketch = nil
		return nil
	}
	if s.Sketch == nil {
		s.Sketch = new(agg.Sketch)
	}
	if err := s.Sketch.UnmarshalJSON(raw); err != nil {
		return fmt.Errorf("json: sketch: %w", err)
	}
	return nil
}

// key decodes the object key at pos. A key whose unescaped form passes
// MaxKeyLen (far longer than any field name, folded or not) comes back
// nil, which matches no field.
func (sc *jsonScanner) key() ([]byte, error) {
	raw, clean, err := sc.stringLit()
	if err != nil || clean {
		return raw, err
	}
	if raw, fits := sc.unquote(raw, MaxKeyLen); fits {
		return raw, nil
	}
	return nil, nil
}

// integer decodes an integer literal as strconv.ParseInt does after
// encoding/json's number syntax: no fraction, no exponent, no overflow.
func (sc *jsonScanner) integer(f int) (int64, error) {
	b, i := sc.buf, sc.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		if !neg {
			return 0, sc.typeError(f)
		}
		sc.pos = i
		return 0, sc.fail("invalid number")
	}
	// A leading 0 stands alone (a digit after it fails the caller's
	// delimiter check, as JSON requires). Nineteen digits cannot wrap a
	// uint64, so the digits accumulate unchecked and the range is
	// checked once at the end; twenty or more overflow any int64.
	start := i
	u := uint64(b[i] - '0')
	i++
	if u != 0 {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			u = u*10 + uint64(b[i]-'0')
		}
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if i-start > 19 || u > limit {
		return 0, fmt.Errorf("json: %s: number overflows int64 at offset %d", jsonFieldNames[f], sc.pos)
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, fmt.Errorf("json: %s: non-integer number at offset %d", jsonFieldNames[f], sc.pos)
	}
	sc.pos = i
	if neg {
		return -int64(u), nil // u == 1<<63 wraps to MinInt64, as intended
	}
	return int64(u), nil
}

// number steps over one number literal, checking JSON's grammar.
func (sc *jsonScanner) number() error {
	b, i := sc.buf, sc.pos
	digits := func() {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		sc.pos = i
		return sc.fail("invalid number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			sc.pos = i
			return sc.fail("invalid number fraction")
		}
		digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			sc.pos = i
			return sc.fail("invalid number exponent")
		}
		digits()
	}
	sc.pos = i
	return nil
}

// stringLit steps over the string literal at pos, checking its syntax, and
// returns its raw content. clean reports the content is already its own
// decoded form: no escapes and valid UTF-8.
func (sc *jsonScanner) stringLit() (raw []byte, clean bool, err error) {
	b := sc.buf
	start := sc.pos + 1
	clean = true
	high := false
	for i := start; ; {
		for i < len(b) && plainStringByte[b[i]] {
			i++
		}
		if i == len(b) {
			sc.pos = i
			return nil, false, sc.fail("unterminated string")
		}
		switch c := b[i]; {
		case c == '"':
			raw = b[start:i]
			sc.pos = i + 1
			if high && clean && !utf8.Valid(raw) {
				clean = false
			}
			return raw, clean, nil
		case c == '\\':
			clean = false
			i++
			if i == len(b) {
				sc.pos = i
				return nil, false, sc.fail("unterminated string")
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if i+4 >= len(b) || hex4(b[i+1:i+5]) < 0 {
					sc.pos = i
					return nil, false, sc.fail("invalid \\u escape")
				}
				i += 5
			default:
				sc.pos = i
				return nil, false, sc.fail("invalid escape")
			}
		case c < ' ':
			sc.pos = i
			return nil, false, sc.fail("control character in string")
		default:
			high = true
			i++
		}
	}
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote decodes the content of a syntax-checked string literal into
// sc.unq as encoding/json does. It stops, reporting !fits, once the
// decoded form passes limit (≤ MaxKeyLen) bytes.
func (sc *jsonScanner) unquote(s []byte, limit int) (out []byte, fits bool) {
	out = sc.unq[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			e := s[r+1]
			if e != 'u' {
				out = append(out, unescape(e))
				r += 2
				break
			}
			rr := hex4(s[r+2 : r+6])
			r += 6
			if utf16.IsSurrogate(rr) {
				rr1 := rune(-1)
				if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
					rr1 = hex4(s[r+2 : r+6])
				}
				if dec := utf16.DecodeRune(rr, rr1); dec != utf8.RuneError {
					rr = dec // a valid pair; consume both
					r += 6
				} else {
					rr = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, rr)
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
		if len(out) > limit {
			return nil, false
		}
	}
	return out, true
}

// unescape maps a one-byte escape to its byte.
func unescape(e byte) byte {
	switch e {
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return e // '"', '\\', '/'
}

// skipValue steps over the value at pos, checking its syntax as
// encoding/json's scanner does, nesting limit included; depth is the
// number of containers already open around it.
func (sc *jsonScanner) skipValue(depth int) error {
	stack := sc.stack[:0]
	defer func() { sc.stack = stack[:0] }()
	for {
		// A value starts at pos.
		switch c := sc.peek(); c {
		case '{', '[':
			if depth+len(stack) >= maxNestingDepth {
				return sc.fail("exceeded max depth")
			}
			sc.pos++
			sc.skipSpace()
			if sc.peek() == c+2 { // '}' and ']' sit two past their openers
				sc.pos++
				break
			}
			stack = append(stack, c)
			if c == '{' {
				if err := sc.member(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := sc.stringLit(); err != nil {
				return err
			}
		case 't':
			if err := sc.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := sc.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := sc.literal("null"); err != nil {
				return err
			}
		default:
			if err := sc.number(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one takes another value.
		for {
			if len(stack) == 0 {
				return nil
			}
			sc.skipSpace()
			open := stack[len(stack)-1]
			c := sc.peek()
			if c == ',' {
				sc.pos++
				sc.skipSpace()
				if open == '{' {
					if err := sc.member(); err != nil {
						return err
					}
				}
				break
			}
			if c != open+2 {
				return sc.fail("expected ',' or end of container")
			}
			sc.pos++
			stack = stack[:len(stack)-1]
		}
	}
}

// member steps over an object key and its colon, leaving pos at the
// value.
func (sc *jsonScanner) member() error {
	if sc.peek() != '"' {
		return sc.fail("expected object key")
	}
	if _, _, err := sc.stringLit(); err != nil {
		return err
	}
	sc.skipSpace()
	if sc.peek() != ':' {
		return sc.fail("expected ':' after object key")
	}
	sc.pos++
	sc.skipSpace()
	return nil
}

// literal steps over true, false or null.
func (sc *jsonScanner) literal(lit string) error {
	if end := sc.pos + len(lit); end <= len(sc.buf) && string(sc.buf[sc.pos:end]) == lit {
		sc.pos = end
		return nil
	}
	return sc.fail("invalid literal")
}

// skipSpace steps over JSON whitespace. Compact JSON has none between
// tokens, so the inlined check returns before the loop.
func (sc *jsonScanner) skipSpace() {
	if sc.pos < len(sc.buf) && sc.buf[sc.pos] > ' ' {
		return
	}
	sc.skipSpaceLoop()
}

func (sc *jsonScanner) skipSpaceLoop() {
	for ; sc.pos < len(sc.buf); sc.pos++ {
		switch sc.buf[sc.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek returns the byte at pos, or 0 at the end (0 is never valid
// where peek is asked, so the end fails like any wrong byte).
func (sc *jsonScanner) peek() byte {
	if sc.pos < len(sc.buf) {
		return sc.buf[sc.pos]
	}
	return 0
}

func (sc *jsonScanner) fail(msg string) error {
	if sc.pos >= len(sc.buf) {
		return fmt.Errorf("json: unexpected end of input (%s)", msg)
	}
	return fmt.Errorf("json: %s at offset %d (%q)", msg, sc.pos, sc.buf[sc.pos])
}

// typeError reports a value of the wrong JSON type for field f.
func (sc *jsonScanner) typeError(f int) error {
	if sc.pos >= len(sc.buf) {
		return sc.fail("expected value")
	}
	return fmt.Errorf("json: %s: cannot decode value starting %q at offset %d", jsonFieldNames[f], sc.buf[sc.pos], sc.pos)
}
