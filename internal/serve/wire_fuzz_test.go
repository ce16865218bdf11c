package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDecodeRequest drives arbitrary bodies through the daemon's strict
// decode and validation. Neither may panic; a rejection must be a typed
// RequestError (a 400 on the wire); an accepted request must be
// normalised, and its re-encoding must decode, validate and re-encode
// to the same bytes, so what the daemon accepted is exactly what it
// serves. The seed corpus is testdata/fuzz/FuzzDecodeRequest; run
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("rejection is not a RequestError: %v", err)
			}
			return
		}
		if req.Grid < gridMin || req.Grid > gridMax || (req.Mode != ModePower && req.Mode != ModeApp) {
			t.Fatalf("accepted an unnormalised request: grid %d, mode %q", req.Grid, req.Mode)
		}
		if req.Mode == ModePower {
			if bps := req.Power.blockPowers(); len(bps) != len(req.Power.Proc) {
				t.Fatalf("%d block powers for %d proc entries", len(bps), len(req.Power.Proc))
			}
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		again, err := decodeRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded request %s rejected: %v", enc, err)
		}
		enc2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the request:\n%s\n%s", enc, enc2)
		}
	})
}
