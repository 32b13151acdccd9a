package ingest

// JSON-lines batch encoder, the device side of the JSON wire and the
// twin of AppendBinaryBatch. A monitor's own cost on the handset is
// part of what it measures, and reflection-driven encoding/json spent
// several times the binary encoder's CPU on a record whose shape never
// changes. AppendBatch writes Summary's fixed fields by hand.
//
// The output is exactly what a json.Encoder loop over &batch[i] writes;
// FuzzAppendBatchMatchesEncodingJSON holds the two to that. The parts of
// encoding/json's behaviour this mirrors:
//
//   - fields in Summary's declaration order, omitempty ones left out at
//     their zero value (a -0 inflation included), and "rtts_ns":null
//     for a nil slice;
//   - floats as strconv 'f', or 'e' below 1e-6 or at and above 1e21
//     with a one-digit negative exponent ("1e-7", not "1e-07"), and an
//     *json.UnsupportedValueError for NaN and ±Inf;
//   - HTML-safe strings: a string holding anything but printable ASCII
//     other than '"', '\\', '<', '>' and '&' is handed to encoding/json,
//     which escapes those, control characters, U+2028/U+2029 and
//     invalid UTF-8;
//   - an embedded sketch is whatever json.Marshal makes of it: its
//     MarshalJSON output, compacted and HTML-escaped.
//
// A new Summary field needs a line in appendSummaryJSON;
// TestAppendBatchHardCases sets every field by reflection and fails
// until it has one.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendBatch appends batch to dst as JSON lines, one object and a
// '\n' per summary. On error dst keeps the summaries before the failing
// one, as an encoding/json loop would have written them.
func AppendBatch(dst []byte, batch []Summary) ([]byte, error) {
	for i := range batch {
		mark := len(dst)
		var err error
		if dst, err = appendSummaryJSON(dst, &batch[i]); err != nil {
			return dst[:mark], err
		}
	}
	return dst, nil
}

// appendSummaryJSON appends one summary's object and its newline.
func appendSummaryJSON(dst []byte, s *Summary) ([]byte, error) {
	dst = appendJSONString(append(dst, `{"device":`...), s.Device)
	if s.Chipset != "" {
		dst = appendJSONString(append(dst, `,"chipset":`...), s.Chipset)
	}
	if s.Group != "" {
		dst = appendJSONString(append(dst, `,"group":`...), s.Group)
	}
	if s.Scenario != "" {
		dst = appendJSONString(append(dst, `,"scenario":`...), s.Scenario)
	}
	dst = appendJSONInt(dst, `,"time_ms":`, s.TimeMS)
	dst = append(dst, `,"rtts_ns":`...)
	if s.RTTs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range s.RTTs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	if s.Sketch != nil {
		b, err := json.Marshal(s.Sketch)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"sketch":`...), b...)
	}
	dst = strconv.AppendInt(append(dst, `,"sent":`...), int64(s.Sent), 10)
	dst = strconv.AppendInt(append(dst, `,"lost":`...), int64(s.Lost), 10)
	dst = appendJSONInt(dst, `,"background_sent":`, int64(s.BackgroundSent))
	dst = appendJSONInt(dst, `,"emulated_rtt_ns":`, s.EmulatedRTTNS)
	if s.Inflation != 0 {
		var err error
		if dst, err = appendJSONFloat(append(dst, `,"inflation":`...), s.Inflation); err != nil {
			return dst, err
		}
	}
	dst = appendJSONTrue(dst, `,"layers_ok":true`, s.LayersOK)
	dst = appendJSONInt(dst, `,"user_overhead_ns":`, s.UserOverheadNS)
	dst = appendJSONInt(dst, `,"sdio_overhead_ns":`, s.SDIOOverheadNS)
	dst = appendJSONInt(dst, `,"psm_inflation_ns":`, s.PSMInflationNS)
	dst = appendJSONTrue(dst, `,"psm_active":true`, s.PSMActive)
	dst = appendJSONTrue(dst, `,"calibrated":true`, s.Calibrated)
	return append(dst, '}', '\n'), nil
}

// appendJSONInt appends an omitempty integer field: key, then v, unless
// v is zero.
func appendJSONInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendJSONTrue appends an omitempty bool field, already rendered as
// true, when v is set.
func appendJSONTrue(dst []byte, field string, v bool) []byte {
	if !v {
		return dst
	}
	return append(dst, field...)
}

// appendJSONString appends s quoted. Printable ASCII that HTML-safe
// JSON leaves alone is copied as is; anything else goes through
// encoding/json, whose escaping is the contract.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 form.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, nil
}
