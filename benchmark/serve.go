package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/floorplan"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/serve"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// The serve-greens workload: an in-process xylemd (serve.DefaultConfig,
// two solvers) on loopback HTTP, tenants base and banke at grid 24,
// power-mode Green's fast-path requests generated from the seed.
//
//   - setup: start the daemon and send one warm request per tenant, which
//     pays for the stack, the MG hierarchy and the basis build;
//   - open loop: Poisson arrivals at serveRate, latency timed from each
//     request's due time, for the run's seconds in a traced run and a
//     quarter of them in an untraced one;
//   - closed loop: nproc clients, each sending its next request when the
//     previous one returns, for a fixed request count, in segments of
//     serveSegment requests; between two segments the daemon drains and
//     the control runs a gap.
//
// Afterwards every response is checked bit-for-bit against the
// benchmark's own perf.SolveGreens answer, and a seeded sample is
// re-solved by CG.
var serveTenants = []string{"base", "banke"}

const (
	serveGrid = 24
	// serveRate is the open-loop arrival rate in requests per second.
	serveRate = 50
	// closedPerSecond sizes the closed loop: this many requests per
	// second of --seconds.
	closedPerSecond = 50
	// serveSegment is how many requests the closed loop sends between
	// two control gaps: about half a second.
	serveSegment = 50
	// serveGap and serveSetupGap are how many control bursts run after
	// each segment and around the setup.
	serveGap      = 24
	serveSetupGap = 100
	// cgSample is how many responses are re-solved by CG.
	cgSample = 8
	// oracleTolC is the fast path's Green's-vs-CG agreement tolerance.
	oracleTolC = 1e-3
)

// reqGen builds the seeded request stream: request j's tenant and power
// map are pure functions of (seed, j).
type reqGen struct {
	seed   uint64
	blocks []string
}

func newReqGen(seed uint64) (*reqGen, error) {
	fp, err := floorplan.BuildProcDie(floorplan.DefaultProcConfig())
	if err != nil {
		return nil, err
	}
	g := &reqGen{seed: seed}
	for _, b := range fp.Blocks {
		g.blocks = append(g.blocks, b.Name)
	}
	return g, nil
}

// tenant returns request j's tenant index.
func (g *reqGen) tenant(j int) int {
	return int(fault.Unit(g.seed, streamTenant, uint64(j), 0) * float64(len(serveTenants)))
}

// request builds request j for tenant t: about 35 W spread over every
// processor block, plus a lightly powered bottom DRAM die.
func (g *reqGen) request(j, t int) *serve.SolveRequest {
	proc := make(map[string]float64, len(g.blocks))
	scale := 35.0 / float64(len(g.blocks))
	for i, b := range g.blocks {
		proc[b] = scale * (0.5 + fault.Unit(g.seed, streamPower, uint64(j), uint64(i)))
	}
	return &serve.SolveRequest{
		Scheme: serveTenants[t],
		Grid:   serveGrid,
		Mode:   serve.ModePower,
		Power: &serve.PowerSpec{
			Proc: proc,
			DRAM: []serve.DRAMDiePower{{BackgroundW: 0.6, BankW: [][]float64{{0.15, 0.15}, {0.1, 0.1}}}},
		},
		FastPath: true,
	}
}

// powers canonicalises a request's power spec the way the daemon does:
// blocks sorted by name, one slice power per DRAM die.
func powers(req *serve.SolveRequest, dies int) ([]power.BlockPower, []power.SlicePower) {
	names := make([]string, 0, len(req.Power.Proc))
	for n := range req.Power.Proc {
		names = append(names, n)
	}
	sort.Strings(names)
	bp := make([]power.BlockPower, len(names))
	for i, n := range names {
		bp[i] = power.BlockPower{Name: n, Watts: req.Power.Proc[n]}
	}
	sp := make([]power.SlicePower, dies)
	for s, d := range req.Power.DRAM {
		sp[s] = power.SlicePower{BackgroundW: d.BackgroundW, BankW: d.BankW}
	}
	return bp, sp
}

// shot is one request sent and its outcome.
type shot struct {
	req    *serve.SolveRequest
	body   []byte
	status int
	resp   []byte
	err    error
	// due, sent and done are offsets from the phase start; open-loop
	// latency runs from due, closed-loop latency from sent (a closed
	// loop's shots are due when sent).
	due, sent, done time.Duration
	// id is the request's index in the seeded stream.
	id int
}

// loadClient posts requests over at most nproc connections.
type loadClient struct {
	http *http.Client
	tr   *http.Transport
	url  string
}

func newLoadClient(addr string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr, url: "http://" + addr + "/v1/solve"}
}

// post sends s.body and records status, body and times relative to t0.
// With a tracer, the request gets a loadgen.request span from its due
// time over a serve.http span for the round trip, both carrying its id.
func (c *loadClient) post(s *shot, t0 time.Time, tr *tracer) {
	s.sent = time.Since(t0)
	root := tr.startAt("loadgen.request", 0, int64(s.id), t0.Add(s.due))
	id := tr.start("serve.http", root, int64(s.id))
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(s.body))
	if err == nil {
		s.status = resp.StatusCode
		s.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end(id)
	tr.end(root)
	s.err = err
	s.done = time.Since(t0)
}

// newShots pre-encodes requests first..first+n-1, so the generator does
// no marshalling while it runs.
func newShots(g *reqGen, first, n int) ([]*shot, error) {
	out := make([]*shot, n)
	for i := range out {
		j := first + i
		req := g.request(j, g.tenant(j))
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out[i] = &shot{req: req, body: body, id: j}
	}
	return out, nil
}

// scheduleOpen gives the shots seeded exponential gaps (mean 1/rate):
// each shot's due time is the sum of the gaps up to it.
func scheduleOpen(shots []*shot, seed uint64, rate float64) {
	var due time.Duration
	for j, s := range shots {
		u := fault.Unit(seed, streamGaps, uint64(j), 0)
		due += time.Duration(-math.Log(1-u) / rate * float64(time.Second))
		s.due = due
	}
}

// openLoop sends the shots at their due times from one scheduler over
// nproc senders, regardless of how fast responses come back, and returns
// when every response is in.
func openLoop(c *loadClient, shots []*shot, tr *tracer) {
	ch := make(chan *shot, len(shots)) // sized to the number of sends
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				c.post(s, t0, tr)
			}
		}()
	}
	for _, s := range shots {
		if d := s.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		ch <- s
	}
	close(ch)
	wg.Wait()
}

// closedLoop runs nproc clients, each sending its next shot as soon as
// the previous one returns.
func closedLoop(c *loadClient, shots []*shot, tr *tracer) {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(shots); i += nproc {
				s := shots[i]
				s.due = time.Since(t0)
				c.post(s, t0, tr)
			}
		}(w)
	}
	wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serveRun is one serve-greens pass: setup, open loop, closed loop(s).
// Its times are raw; each phase's control gives the factor to reference
// speed.
type serveRun struct {
	srv    *serve.Server
	client *loadClient
	setupS float64
	warm   []*shot
	open   []*shot
	closed [][]*shot
	// cpus and refs hold each closed loop's CPU time, raw and at
	// reference speed.
	cpus, refs []float64
	heapMB     float64
	// setupCtl and closedCtl hold the gaps around the setup and inside
	// each phase.
	setupCtl, closedCtl *control
	openReg             [2][]int64 // queue-wait bucket counts around the open loop
}

// segments calls f on consecutive runs of at most serveSegment shots,
// each between two control gaps, and returns each run's scale factor
// from the bursts of the gaps on both sides of it.
func segments(shots []*shot, ctl *control, f func(seg []*shot)) []float64 {
	var scales []float64
	ctl.gap(serveGap)
	for i := 0; i < len(shots); i += serveSegment {
		from := ctl.mark() - serveGap
		f(shots[i:min(i+serveSegment, len(shots))])
		ctl.gap(serveGap)
		scales = append(scales, ctl.scaleOver(from, ctl.mark()))
	}
	return scales
}

// runServeLoad starts the daemon and drives it with nOpen open-loop
// requests and closedRounds closed
// loops run back to back; with two, only the second is traced, so their
// walls give the tracing overhead. reg, when non-nil, is attached to
// the daemon.
func runServeLoad(o opts, reg *obs.Registry, nOpen, closedRounds int, tr *tracer) (*serveRun, error) {
	gen, err := newReqGen(o.seed)
	if err != nil {
		return nil, err
	}
	nClosed := closedPerSecond * o.seconds
	r := &serveRun{}
	if r.open, err = newShots(gen, len(serveTenants), nOpen); err != nil {
		return nil, err
	}
	for k := 0; k < closedRounds; k++ {
		s, err := newShots(gen, len(serveTenants)+nOpen+k*nClosed, nClosed)
		if err != nil {
			return nil, err
		}
		r.closed = append(r.closed, s)
	}
	for t := range serveTenants {
		req := gen.request(t, t)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.warm = append(r.warm, &shot{req: req, body: body, id: t})
	}

	heap := startHeapSampler()
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Obs = reg
	r.setupCtl, r.closedCtl = newControl(), newControl()
	r.setupCtl.gap(serveSetupGap)
	c0 := cpuSeconds()
	t0 := time.Now()
	r.srv = serve.New(cfg)
	if err := r.srv.Start(); err != nil {
		return nil, err
	}
	r.client = newLoadClient(r.srv.Addr())
	for _, s := range r.warm {
		s.due = time.Since(t0)
		r.client.post(s, t0, tr)
	}
	r.setupS = cpuSeconds() - c0
	r.setupCtl.gap(serveSetupGap)

	qw := reg.Histogram("xylem_serve_queue_wait_ms", nil)
	r.openReg[0] = qw.BucketCounts()
	scheduleOpen(r.open, o.seed, serveRate)
	openLoop(r.client, r.open, tr)
	r.openReg[1] = qw.BucketCounts()
	for k := range r.closed {
		ktr := tr
		if k == 0 && len(r.closed) > 1 {
			ktr = nil // the untraced baseline of the tracing overhead
		}
		var cpus []float64
		scales := segments(r.closed[k], r.closedCtl, func(seg []*shot) {
			c0 := cpuSeconds()
			closedLoop(r.client, seg, ktr)
			cpus = append(cpus, cpuSeconds()-c0)
		})
		var ref float64
		for i, c := range cpus {
			ref += c * scales[i]
		}
		r.cpus = append(r.cpus, sum(cpus))
		r.refs = append(r.refs, ref)
	}
	r.heapMB = heap.medianMB()
	return r, nil
}

// stop shuts the daemon down and closes the client's connections.
func (r *serveRun) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	r.client.tr.CloseIdleConnections()
	return err
}

// all returns every shot sent.
func (r *serveRun) all() []*shot {
	out := append(append([]*shot(nil), r.warm...), r.open...)
	for _, c := range r.closed {
		out = append(out, c...)
	}
	return out
}

// reference holds the benchmark's own evaluator per tenant.
type reference struct {
	ev []*perf.Evaluator
	st []*stack.Stack
}

// newReference builds each tenant's stack and Green's basis on an
// evaluator configured like the daemon's, one tenant per goroutine.
func newReference() (*reference, error) {
	ref := &reference{
		ev: make([]*perf.Evaluator, len(serveTenants)),
		st: make([]*stack.Stack, len(serveTenants)),
	}
	errs := make([]error, len(serveTenants))
	var wg sync.WaitGroup
	for t, name := range serveTenants {
		wg.Add(1)
		go func(t int, name string) {
			defer wg.Done()
			k, _ := stack.ParseScheme(name)
			st, err := buildStack(serveGrid, k)
			if err != nil {
				errs[t] = err
				return
			}
			ev := perf.NewEvaluator()
			_, errs[t] = ev.GreensBasisFor(context.Background(), st)
			ref.ev[t], ref.st[t] = ev, st
		}(t, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// tenantOf maps a request back to its tenant index.
func tenantOf(req *serve.SolveRequest) int {
	for t, name := range serveTenants {
		if req.Scheme == name {
			return t
		}
	}
	return -1
}

// checkServe verifies every shot: HTTP 200, and proc_hot_c/dram0_hot_c
// equal to the reference's perf.SolveGreens answer bit-for-bit; then a
// seeded sample is re-solved by CG and must agree within oracleTolC.
func checkServe(l *ledger, ref *reference, shots []*shot, seed uint64) error {
	ctx := context.Background()
	l.attempt(len(shots))
	resps := make([]*serve.SolveResponse, len(shots))
	// One goroutine per tenant: each reference stack has its own solver.
	errs := make([]error, len(serveTenants))
	var wg sync.WaitGroup
	for t := range serveTenants {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			st := ref.st[t]
			for i, s := range shots {
				if tenantOf(s.req) != t {
					continue
				}
				if s.err != nil || s.status != http.StatusOK {
					l.fail(1, "request %d: status %d, err %v: %s", s.id, s.status, s.err, s.resp)
					continue
				}
				var resp serve.SolveResponse
				if err := json.Unmarshal(s.resp, &resp); err != nil {
					l.fail(1, "request %d: decode: %v", s.id, err)
					continue
				}
				bp, sp := powers(s.req, st.Cfg.NumDRAMDies)
				temps, err := ref.ev[t].SolveGreens(ctx, st, bp, sp)
				if err != nil {
					errs[t] = err
					return
				}
				proc, _ := temps.Max(st.ProcMetalLayer)
				dram, _ := temps.Max(st.DRAMMetalLayers[0])
				if math.Float64bits(proc) != math.Float64bits(resp.ProcHotC) ||
					math.Float64bits(dram) != math.Float64bits(resp.DRAM0HotC) {
					l.fail(1, "request %d: served %v/%v °C, SolveGreens %v/%v °C", s.id, resp.ProcHotC, resp.DRAM0HotC, proc, dram)
					continue
				}
				resps[i] = &resp
			}
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// CG oracle on a seeded sample, one batched solve per tenant.
	byTenant := make([][]int, len(serveTenants))
	for _, i := range shuffle(seed, streamSample, len(shots))[:min(cgSample, len(shots))] {
		if resps[i] != nil {
			t := tenantOf(shots[i].req)
			byTenant[t] = append(byTenant[t], i)
		}
	}
	for t, idx := range byTenant {
		if len(idx) == 0 {
			continue
		}
		st := ref.st[t]
		pms := make([]thermal.PowerMap, len(idx))
		for k, i := range idx {
			bp, sp := powers(shots[i].req, st.Cfg.NumDRAMDies)
			pm, err := ref.ev[t].BuildPowerMap(st, bp, sp)
			if err != nil {
				return err
			}
			pms[k] = pm
		}
		temps, errs, err := ref.ev[t].SolveBatch(ctx, st, pms)
		if err != nil {
			return err
		}
		for k, i := range idx {
			if errs[k] != nil {
				l.fail(1, "request %d: CG re-solve: %v", i, errs[k])
				continue
			}
			proc, _ := temps[k].Max(st.ProcMetalLayer)
			dram, _ := temps[k].Max(st.DRAMMetalLayers[0])
			if math.Abs(proc-resps[i].ProcHotC) > oracleTolC || math.Abs(dram-resps[i].DRAM0HotC) > oracleTolC {
				l.fail(1, "request %d: Green's %v/%v °C, CG %v/%v °C", i, resps[i].ProcHotC, resps[i].DRAM0HotC, proc, dram)
			}
		}
	}
	return nil
}

// openLatencies returns the open-loop latencies from due time and the
// generator lag (send minus due), in ms.
func openLatencies(shots []*shot) (lat, lag, svc []float64) {
	for _, s := range shots {
		lat = append(lat, ms(s.done-s.due))
		lag = append(lag, ms(s.sent-s.due))
		svc = append(svc, ms(s.done-s.sent))
	}
	return lat, lag, svc
}

func runServe(o opts, l *ledger) error {
	r, err := runServeLoad(o, nil, serveRate*o.seconds/4, 1, nil)
	if err != nil {
		return err
	}
	if err := r.stop(); err != nil {
		return err
	}
	runtime.GC()
	ref, err := newReference()
	if err != nil {
		return err
	}
	if err := checkServe(l, ref, r.all(), o.seed); err != nil {
		return err
	}
	l.setRef("setup_s", "setup_s", r.setupS, r.setupS*r.setupCtl.scale())
	l.setRef("work_ref_s", "closed_s", r.cpus[0], r.refs[0])
	l.set("live_heap_mb", r.heapMB)
	return nil
}

// histQuantile estimates a quantile from bucket-count deltas by linear
// interpolation inside the bucket that holds it.
func histQuantile(bounds []float64, before, after []int64, q float64) float64 {
	d := make([]int64, len(after))
	var n int64
	for i := range after {
		d[i] = after[i] - before[i]
		n += d[i]
	}
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for i, c := range d {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := lo
			if i < len(bounds) {
				hi = bounds[i]
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

func tracedServe(o opts, l *ledger) error {
	tr := newTracer()
	reg := obs.New()
	r, err := runServeLoad(o, reg, serveRate*o.seconds, 2, tr)
	if err != nil {
		return err
	}
	if err := r.stop(); err != nil {
		return err
	}
	runtime.GC()
	ref, err := newReference()
	if err != nil {
		return err
	}
	if err := checkServe(l, ref, r.all(), o.seed); err != nil {
		return err
	}
	if err := runProbes(l, tr); err != nil {
		return err
	}

	lat, lag, svc := openLatencies(r.open)
	l.set("trace.overhead_s", r.cpus[1]-r.cpus[0])
	l.set("control.burst_us", r.closedCtl.burstUS())
	l.set("loadgen.p50_ms", quantile(lat, 0.5))
	l.set("serve.self_ms", median(svc)-l.vals["perf.solve_greens_ms"])
	hits := reg.Counter("xylem_serve_cache_hits_total").Value()
	misses := reg.Counter("xylem_serve_cache_misses_total").Value()
	l.set("serve.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	bw := reg.Histogram("xylem_serve_batch_width", nil)
	l.set("serve.batch_width_mean", bw.Sum()/float64(max(bw.Count(), 1)))
	qw := reg.Histogram("xylem_serve_queue_wait_ms", nil)
	l.set("serve.queue_wait_p50_ms", histQuantile(qw.Bounds(), r.openReg[0], r.openReg[1], 0.5))
	l.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	l.set("loadgen.p99_ms", quantile(lat, 0.99))
	setRegistryCounts(l, reg, len(r.all()))
	zeroAbsent(l)
	return tr.dump(o)
}
