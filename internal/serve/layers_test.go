package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// appRequest builds a deterministic app-mode request at the test grid.
func appRequest(name string, freqGHz float64, fast bool) *SolveRequest {
	return &SolveRequest{
		Scheme: "banke", Grid: testGrid, Mode: ModeApp, FastPath: fast,
		App: &AppSpec{Name: name, FreqGHz: freqGHz, Instructions: 20000},
	}
}

// okPost posts req and fails the test unless the daemon answered 200.
func okPost(t *testing.T, s *Server, req *SolveRequest) []byte {
	t.Helper()
	resp, body := post(t, solveURL(s), req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return body
}

// A default body carries no layer_max_c on any mode or path, and every
// field it does carry is bit-equal to the field:true body for the same
// request — on the fast path the default answer reconstructs only two
// layers, and those must be the full reconstruction's layers.
func TestLayerMaxOnlyWithField(t *testing.T) {
	if testing.Short() {
		t.Skip("basis build in -short")
	}
	s := startTestServer(t, func(c *Config) { c.MaxBatch = 1 })
	fast := testRequest(t, 4)
	fast.FastPath = true
	cases := map[string]*SolveRequest{
		"power fast": fast,
		"power cg":   testRequest(t, 5),
		"app fast":   appRequest("fft", 3.2, true),
		"app cg":     appRequest("lu-nas", 2.4, false),
	}
	for name, req := range cases {
		body := okPost(t, s, req)
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := raw["layer_max_c"]; ok {
			t.Fatalf("%s: default body carries layer_max_c: %s", name, body)
		}
		var def SolveResponse
		if err := json.Unmarshal(body, &def); err != nil {
			t.Fatal(err)
		}

		req.Field = true
		var full SolveResponse
		if err := json.Unmarshal(okPost(t, s, req), &full); err != nil {
			t.Fatal(err)
		}
		if len(full.LayerMaxC) == 0 || len(full.Field) == 0 {
			t.Fatalf("%s: field:true body lacks layer_max_c or field", name)
		}
		// Apart from the opt-in maxima and field the two bodies must be
		// equal, and re-encoding compares every float by its shortest
		// round-trip spelling, i.e. bit for bit.
		full.LayerMaxC, full.Field = nil, nil
		a, _ := json.Marshal(def)
		b, _ := json.Marshal(full)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: default body\n%s\ndiffers from the field:true body\n%s", name, a, b)
		}
		if math.Float64bits(def.ProcHotC) != math.Float64bits(full.ProcHotC) {
			t.Fatalf("%s: proc_hot_c %v vs %v", name, def.ProcHotC, full.ProcHotC)
		}
	}
}

// field:true bodies are pinned byte for byte to bodies captured before
// layer maxima became opt-in, when every body carried them: asking for
// the field must change nothing.
func TestFieldBodiesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("basis build in -short")
	}
	s := startTestServer(t, func(c *Config) { c.MaxBatch = 1 })
	field := func(r *SolveRequest, fast bool) *SolveRequest { r.Field, r.FastPath = true, fast; return r }
	cases := map[string]*SolveRequest{
		"power_cg_field":   field(testRequest(t, 2), false),
		"power_fast_field": field(testRequest(t, 3), true),
		"app_cg_field":     field(appRequest("lu-nas", 2.4, false), false),
		"app_fast_field":   field(appRequest("fft", 3.2, true), true),
	}
	for name, req := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := okPost(t, s, req); !bytes.Equal(got, want) {
			t.Fatalf("%s: body differs from testdata/golden/%s.json\ngot  %.300s\nwant %.300s", name, name, got, want)
		}
	}
}
