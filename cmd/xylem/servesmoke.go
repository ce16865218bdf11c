package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/serve"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/workload"
)

// postRaw fires one request and returns the raw response body plus the
// cache/batch headers — the serve-smoke identity checks compare bodies
// byte for byte.
func postRaw(client *http.Client, url string, req *serve.SolveRequest) (body []byte, cache, width string, status int, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, "", "", 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, "", "", 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, resp.Header.Get("X-Xylem-Cache"), resp.Header.Get("X-Xylem-Batch-Width"), resp.StatusCode, err
}

// cmdServeSmoke is the end-to-end serving check wired into CI: start
// the daemon with a live metrics sink, push mixed traffic through it,
// and assert zero errors, cache reuse, batch formation, agreement with
// the figure pipeline, and the serve metrics on the Prometheus sink.
func cmdServeSmoke(args []string) error {
	fs := flag.NewFlagSet("serve-smoke", flag.ContinueOnError)
	grid := fs.Int("grid", 16, "thermal grid resolution")
	n := fs.Int("n", 24, "mixed requests to fire")
	width := fs.Int("width", 4, "max batch width")
	workers := fs.Int("workers", 0, "CG kernel workers per solver")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schemes := []string{"base", "banke"}
	gen, err := newReqGen(1, *grid, schemes)
	if err != nil {
		return err
	}

	reg := obs.New()
	msrv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		return err
	}
	defer msrv.Close()

	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.QueueCap = 4 * *n
	cfg.MaxBatch = *width
	cfg.Linger = 20 * time.Millisecond
	cfg.Workers = *workers
	cfg.Obs = reg
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	url := "http://" + srv.Addr() + "/v1/solve"
	client := &http.Client{Timeout: 10 * time.Minute}
	fmt.Printf("serve-smoke: daemon on %s, metrics on %s (grid %d, batch %d)\n",
		srv.Addr(), msrv.Addr, *grid, *width)

	// Warm every tenant on both paths so the mixed traffic below runs
	// against a hot cache and built bases.
	for j := 0; j < len(schemes); j++ {
		for _, fast := range []bool{false, true} {
			if _, _, _, status, err := postRaw(client, url, gen.request(j, fast)); err != nil || status != http.StatusOK {
				return fmt.Errorf("serve-smoke: warmup req %d (fast=%v): status %d, err %v", j, fast, status, err)
			}
		}
	}

	// Mixed closed-loop traffic: deterministic power maps, deterministic
	// fast-path mix, enough concurrency for batches to form.
	pr := &phaseRunner{gen: gen, client: client, phase: "smoke"}
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < *width; w++ {
		go func() {
			for j := range jobs {
				pr.fire(url, j, gen.mixedFast(j))
			}
			done <- struct{}{}
		}()
	}
	for j := 0; j < *n; j++ {
		jobs <- j
	}
	close(jobs)
	for w := 0; w < *width; w++ {
		<-done
	}
	if len(pr.errs) != 0 || pr.rej != 0 {
		return fmt.Errorf("serve-smoke: %d errors, %d rejections (want 0): first %v", len(pr.errs), pr.rej, pr.errs[0])
	}

	// Byte-identity: the same request answered twice must produce the
	// same bytes (second answer is necessarily a cache hit).
	b1, _, _, _, err := postRaw(client, url, gen.request(3, false))
	if err != nil {
		return err
	}
	b2, cacheState, _, _, err := postRaw(client, url, gen.request(3, false))
	if err != nil {
		return err
	}
	if !bytes.Equal(b1, b2) {
		return fmt.Errorf("serve-smoke: identical requests returned different bodies (%d vs %d bytes)", len(b1), len(b2))
	}
	if cacheState != "hit" {
		return fmt.Errorf("serve-smoke: repeat request not served from cache (X-Xylem-Cache %q)", cacheState)
	}

	// Layer maxima come only with the field: a default fast-path body
	// carries none (its GEMV rebuilt only the two hotspot layers), and a
	// field request returns one maximum per stack layer whose proc metal
	// and DRAM die 0 entries equal the default body's hotspots bit for
	// bit.
	fastReq := gen.request(0, true)
	defBody, _, _, status, err := postRaw(client, url, fastReq)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("serve-smoke: default fast-path request: status %d, err %v", status, err)
	}
	if bytes.Contains(defBody, []byte(`"layer_max_c"`)) {
		return fmt.Errorf("serve-smoke: default fast-path body carries layer_max_c: %s", defBody)
	}
	fastReq.Field = true
	optBody, _, _, status, err := postRaw(client, url, fastReq)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("serve-smoke: field fast-path request: status %d, err %v", status, err)
	}
	var defResp, optResp serve.SolveResponse
	if err := json.Unmarshal(defBody, &defResp); err != nil {
		return err
	}
	if err := json.Unmarshal(optBody, &optResp); err != nil {
		return err
	}
	kind, _ := stack.ParseScheme(fastReq.Scheme)
	scfg := core.DefaultConfig().Stack
	scfg.GridRows, scfg.GridCols = *grid, *grid
	fastSt, err := stack.Build(scfg, kind)
	if err != nil {
		return err
	}
	if got, want := len(optResp.LayerMaxC), len(fastSt.Model.Layers); got != want {
		return fmt.Errorf("serve-smoke: field body has %d maxima, stack has %d layers", got, want)
	}
	for _, c := range []struct {
		what string
		max  float64
		hot  float64
	}{
		{"proc", optResp.LayerMaxC[fastSt.ProcMetalLayer], defResp.ProcHotC},
		{"DRAM0", optResp.LayerMaxC[fastSt.DRAMMetalLayers[0]], defResp.DRAM0HotC},
	} {
		if math.Float64bits(c.max) != math.Float64bits(c.hot) {
			return fmt.Errorf("serve-smoke: %s layer maximum %v != default body's hotspot %v", c.what, c.max, c.hot)
		}
	}

	// Agreement with the figure pipeline: an app-mode request must match
	// core.System.EvaluateUniform at the same operating point.
	const appName, appFreq, appInstr = "lu-nas", 2.4, 60000
	appReq := &serve.SolveRequest{
		Scheme: "base", Grid: *grid, Mode: serve.ModeApp,
		App: &serve.AppSpec{Name: appName, FreqGHz: appFreq, Instructions: appInstr},
	}
	body, _, _, status, err := postRaw(client, url, appReq)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("serve-smoke: app request: status %d, err %v", status, err)
	}
	var appResp serve.SolveResponse
	if err := json.Unmarshal(body, &appResp); err != nil {
		return err
	}
	ccfg := core.DefaultConfig()
	ccfg.Stack.GridRows, ccfg.Stack.GridCols = *grid, *grid
	sys, err := core.NewSystem(ccfg)
	if err != nil {
		return err
	}
	prof, err := workload.ByName(appName)
	if err != nil {
		return err
	}
	prof.Instructions = appInstr
	ref, err := sys.EvaluateUniform(stack.Base, prof, appFreq)
	if err != nil {
		return err
	}
	if d := math.Abs(appResp.ProcHotC - ref.ProcHotC); d > 1e-9 {
		return fmt.Errorf("serve-smoke: app-mode ProcHotC %.12f vs figure pipeline %.12f (|Δ| %.3g > 1e-9)",
			appResp.ProcHotC, ref.ProcHotC, d)
	}
	if d := math.Abs(appResp.DRAM0HotC - ref.DRAM0HotC); d > 1e-9 {
		return fmt.Errorf("serve-smoke: app-mode DRAM0HotC %.12f vs figure pipeline %.12f (|Δ| %.3g > 1e-9)",
			appResp.DRAM0HotC, ref.DRAM0HotC, d)
	}

	// Serving counters: the cache must have been reused and batches must
	// have formed (width may be 1 under unlucky scheduling; existence is
	// the deterministic assertion).
	st := srv.Stats()
	if st.CacheHits == 0 {
		return fmt.Errorf("serve-smoke: no cache hits across %d requests", st.Requests)
	}
	if st.Batches == 0 {
		return fmt.Errorf("serve-smoke: no batches dispatched")
	}

	// The Prometheus sink must expose the serve metrics.
	resp, err := http.Get("http://" + msrv.Addr + "/metrics")
	if err != nil {
		return err
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{
		"xylem_serve_requests_total",
		"xylem_serve_queue_depth",
		"xylem_serve_batch_width",
		"xylem_serve_cache_hits_total",
	} {
		if !strings.Contains(string(scrape), want) {
			return fmt.Errorf("serve-smoke: metrics scrape missing %s", want)
		}
	}

	fmt.Printf("serve-smoke: OK — %d requests, %d batches (mean width %.2f), %d cache hits, app-mode matches figure pipeline, layer maxima only with the field (%d layers)\n",
		st.Responses, st.Batches, st.MeanBatchWidth, st.CacheHits, len(optResp.LayerMaxC))
	return nil
}
