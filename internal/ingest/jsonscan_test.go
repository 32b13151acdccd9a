package ingest

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestJSONFieldNames pins the scanner's field table to Summary's json
// tags: a field added to Summary without a scanner case fails here, not
// only when the differential fuzz happens to generate its key.
func TestJSONFieldNames(t *testing.T) {
	typ := reflect.TypeOf(Summary{})
	if typ.NumField() != len(jsonFieldNames) {
		t.Fatalf("Summary has %d fields, the scanner knows %d", typ.NumField(), len(jsonFieldNames))
	}
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		f := jsonField([]byte(name))
		if f == fUnknown || string(jsonFieldNames[f]) != name {
			t.Errorf("field %s (json %q) resolves to %d", typ.Field(i).Name, name, f)
		}
		if g := jsonField(bytes.ToUpper([]byte(name))); g != f {
			t.Errorf("json %q upper-cased resolves to %d, want %d", name, g, f)
		}
	}
}

// TestOversizedJSONBatchIs413: the scanner reads the whole body before
// scanning, so a body past maxBatchBytes surfaces the reader's
// *http.MaxBytesError — malformed or not — and the handler answers 413
// (split and re-post) rather than 400.
func TestOversizedJSONBatchIs413(t *testing.T) {
	s := &Server{}
	var buf bytes.Buffer
	batch := []Summary{{Device: "Google Nexus 5", Sent: 1, RTTs: []int64{1000}}, {Device: "HTC One", Sent: 1, RTTs: []int64{2000}}}
	if err := EncodeBatch(&buf, batch); err != nil {
		t.Fatal(err)
	}
	valid := strings.Repeat(buf.String(), maxBatchBytes/buf.Len()+1)
	malformed := "{not json" + strings.Repeat(" ", maxBatchBytes)
	for i, body := range []string{valid, malformed} {
		rec := httptest.NewRecorder()
		s.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("body %d (%d bytes): status %d, want 413", i, len(body), rec.Code)
		}
	}
	if got := s.metrics.OversizedBatches.Load(); got != 2 {
		t.Errorf("oversized counter %d, want 2", got)
	}

	_, err := DecodeBatch(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(buf.Bytes())), 64), 0)
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		t.Fatalf("DecodeBatch over a capped reader: %v, want a wrapped *http.MaxBytesError", err)
	}
}
