package main

import (
	"context"
	"encoding/json"
	"runtime/debug"
	"time"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/dtm"
	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/serve"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// The layer probes time each layer from outside through its public
// functions, with the same inputs in every traced run, so a layer's
// per-call cost reads the same way whichever workload's trace it sits
// in. Bytes figures marked "computed" count each array a kernel streams
// once per call, from the array sizes; they ignore cache reuse.

const (
	// llcMiB is the last-level cache of the reference box (Intel Xeon,
	// 2 vCPUs, 300 MiB shared L3). The stream probe copies between two
	// arrays that together hold four times that.
	llcMiB    = 300
	streamMiB = 2 * llcMiB
)

func buildStack(grid int, k stack.SchemeKind) (*stack.Stack, error) {
	cfg := core.DefaultConfig().Stack
	cfg.GridRows, cfg.GridCols = grid, grid
	return stack.Build(cfg, k)
}

func appProfile(name string, instructions int) (workload.Profile, error) {
	p, err := workload.ByName(name)
	if err == nil && instructions > 0 {
		p.Instructions = instructions
	}
	return p, err
}

// runProbes measures every probe metric into l.
func runProbes(l *ledger, tr *tracer) error {
	ctx := context.Background()
	root := tr.start("probes", 0, -1)
	defer tr.end(root)

	// stack and solver construction at grid 24.
	var st *stack.Stack
	var err error
	l.set("stack.build_ms", 1e3*timeMedian(3, func() { st, err = buildStack(fig7Grid, stack.Base) }))
	if err != nil {
		return err
	}
	l.set("perf.solver_build_ms", 1e3*timeMedian(3, func() {
		if _, e := perf.NewEvaluator().SolverFor(st); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	tr.do("mem.stream", root, func(int) { l.set("mem.stream_gbps", streamGBps()) })
	tr.do("thermal.kernels", root, func(int) { err = probeKernels(l, st) })
	if err != nil {
		return err
	}

	// cpusim: one cold activity simulation per Figure 7 app at the base
	// frequency.
	ev := perf.NewEvaluator()
	solver, err := ev.SolverFor(st)
	if err != nil {
		return err
	}
	uni := dtm.NewController(ev).Uniform(core.DefaultConfig().BaseGHz)
	var acts []cpusim.Result
	var actMs []float64
	var instr, actS float64
	for _, name := range fig7Apps {
		app, err := workload.ByName(name)
		if err != nil {
			return err
		}
		id := tr.start("cpusim.activity", root, -1)
		t0 := time.Now()
		res, err := ev.Activity(st.Cfg.NumDRAMDies, uni, perf.UniformAssignments(app, ev.SimCfg.Cores))
		d := since(t0)
		tr.end(id)
		if err != nil {
			return err
		}
		acts = append(acts, res)
		actMs = append(actMs, d*1e3)
		instr += float64(res.TotalInstructions())
		actS += d
	}
	l.set("cpusim.activity_ms", median(actMs))
	l.set("cpusim.minstr_per_s", instr/actS/1e6)

	// perf fixed point and thermal per-point solves at grid 24.
	var fpMs, solveMs []float64
	var iters, vcycles int
	for _, res := range acts {
		id := tr.start("perf.fixed_point", root, -1)
		t0 := time.Now()
		out, err := ev.ThermalWarmCtx(ctx, st, uni, res, nil)
		fpMs = append(fpMs, since(t0)*1e3)
		tr.end(id)
		if err != nil {
			return err
		}
		pm, err := ev.PowerMap(st, uni, res, out.Temps)
		if err != nil {
			return err
		}
		id = tr.start("thermal.solve", root, -1)
		t0 = time.Now()
		_, err = solver.SteadyStateOpts(ctx, pm, thermal.SolveOpts{})
		solveMs = append(solveMs, since(t0)*1e3)
		tr.end(id)
		if err != nil {
			return err
		}
		iters += solver.LastIters
		vcycles += solver.LastVCycles
	}
	l.set("perf.fixed_point_ms", median(fpMs))
	l.set("thermal.solve_ms", median(solveMs))
	l.set("thermal.solve_iters", float64(iters))
	l.set("thermal.vcycles", float64(vcycles))

	tr.do("thermal.batch", root, func(int) { err = probeBatch(ctx, l, acts, uni) })
	if err != nil {
		return err
	}
	tr.do("thermal.greens", root, func(int) { err = probeGreens(ctx, l) })
	if err != nil {
		return err
	}
	tr.do("dtm.observe", root, func(int) { err = probeObserve(l) })
	return err
}

// streamGBps times a copy between two streamMiB/2-sized arrays and
// returns bytes read plus written per second (median of five copies,
// after one untimed copy that faults every page in).
func streamGBps() float64 {
	n := (streamMiB / 2) << 20 / 8
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src)
	t := timeMedian(5, func() { copy(dst, src) })
	src, dst = nil, nil
	debug.FreeOSMemory()
	return 2 * float64(n*8) / t / 1e9
}

// probeKernels times the three solver kernels at grid 24 and derives
// their computed bandwidth. Bytes per cell: the stencil apply streams x,
// the shifted diagonal, gRight, gFront and gUp and writes y (6 × 8 B);
// a full red-black Thomas sweep streams b, x, gRight, gFront, gUp and
// the two precomputed factors and writes x (8 × 8 B); the fused
// reduction is the apply plus the second dot's r (7 × 8 B).
func probeKernels(l *ledger, st *stack.Stack) error {
	s, err := thermal.NewSolver(st.Model)
	if err != nil {
		return err
	}
	k := s.Kernels()
	cells := float64(k.Cells())
	const reps = 100
	perCall := func(f func()) float64 {
		return timeMedian(9, func() {
			for i := 0; i < reps; i++ {
				f()
			}
		}) / reps
	}
	var sink float64
	for _, kn := range []struct {
		name  string
		bytes float64
		f     func()
	}{
		{"stencil_apply", 6 * 8, k.StencilApply},
		{"thomas_sweep", 8 * 8, k.ThomasSweep},
		{"fused_reduction", 7 * 8, func() { sink += k.FusedReduction() }},
	} {
		t := perCall(kn.f)
		l.set("thermal."+kn.name+"_us", t*1e6)
		l.set("thermal."+kn.name+"_gbps", kn.bytes*cells/t/1e9)
	}
	_ = sink
	return nil
}

// probeBatch times the batched paths at the fleet's shape: grid 16, 16
// columns, perturbed copies of the probe's power maps.
func probeBatch(ctx context.Context, l *ledger, acts []cpusim.Result, freqs []float64) error {
	const width = 16
	st, err := buildStack(16, stack.Base)
	if err != nil {
		return err
	}
	ev := perf.NewEvaluator()
	solver, err := ev.SolverFor(st)
	if err != nil {
		return err
	}
	pts := make([]perf.ThermalBatchPoint, width)
	pms := make([]thermal.PowerMap, width)
	for j := range pts {
		res := acts[j%len(acts)]
		pts[j] = perf.ThermalBatchPoint{Freqs: freqs, Res: res}
		pm, err := ev.PowerMap(st, freqs, res, nil)
		if err != nil {
			return err
		}
		scale := 0.75 + 0.5*float64(j)/float64(width-1)
		for li := range pm {
			for c := range pm[li] {
				pm[li][c] *= scale
			}
		}
		pms[j] = pm
	}
	l.set("perf.batch_fixed_point_col_ms", 1e3/width*timeMedian(3, func() {
		if _, e := ev.ThermalBatchCtx(ctx, st, pts); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	var iters int
	l.set("thermal.batch_col_ms", 1e3/width*timeMedian(3, func() {
		res, e := solver.SteadyStateBatch(ctx, pms, thermal.BatchOpts{})
		if e != nil {
			err = e
			return
		}
		iters = 0
		for _, it := range res.Iters {
			iters += it
		}
	}))
	l.set("thermal.batch_iters", float64(iters))
	return err
}

// probeGreens times the Green's fast path at grid 24: the basis build,
// the full-field and single-layer GEMVs, perf.SolveGreens on generated
// request powers, and the JSON encoding of the response a daemon would
// send.
func probeGreens(ctx context.Context, l *ledger) error {
	st, err := buildStack(serveGrid, stack.Base)
	if err != nil {
		return err
	}
	ev := perf.NewEvaluator()
	t0 := time.Now()
	gb, err := ev.GreensBasisFor(ctx, st)
	if err != nil {
		return err
	}
	l.set("thermal.basis_build_s", since(t0))
	solver, err := ev.SolverFor(st)
	if err != nil {
		return err
	}
	p := make([]float64, gb.B)
	for j := range p {
		p[j] = 0.2 * fault.Unit(1, streamPower, uint64(j), 0)
	}
	n := gb.Cells()
	npl := n / gb.Layers
	x, layer := make([]float64, n), make([]float64, npl)
	full := timeMedian(15, func() {
		if e := solver.GreensApply(gb, p, x); e != nil {
			err = e
		}
	})
	l.set("thermal.gemv_full_ms", full*1e3)
	l.set("thermal.gemv_gbps", float64(n*gb.B*8+n*8)/full/1e9)
	l.set("thermal.gemv_layer_ms", 1e3*timeMedian(31, func() {
		if e := solver.GreensApplyLayer(gb, p, st.ProcMetalLayer, layer); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	gen, err := newReqGen(1)
	if err != nil {
		return err
	}
	var temps thermal.Temperature
	var solveMs []float64
	for j := 0; j < 15; j++ {
		bp, sp := powers(gen.request(j, 0), st.Cfg.NumDRAMDies)
		t0 := time.Now()
		temps, err = ev.SolveGreens(ctx, st, bp, sp)
		solveMs = append(solveMs, since(t0)*1e3)
		if err != nil {
			return err
		}
	}
	l.set("perf.solve_greens_ms", median(solveMs))

	resp := &serve.SolveResponse{Scheme: "base", Grid: serveGrid, Mode: serve.ModePower, ProcPowerW: 35, DRAMPowerW: 1.1}
	resp.ProcHotC, _ = temps.Max(st.ProcMetalLayer)
	resp.DRAM0HotC, _ = temps.Max(st.DRAMMetalLayers[0])
	for li := range temps {
		v, _ := temps.Max(li)
		resp.LayerMaxC = append(resp.LayerMaxC, v)
	}
	var body []byte
	const reps = 200
	enc := timeMedian(9, func() {
		for i := 0; i < reps; i++ {
			if body, err = json.Marshal(resp); err != nil {
				return
			}
		}
	}) / reps
	l.set("serve.encode_us", enc*1e6)
	l.set("serve.resp_bytes", float64(len(body)))
	return err
}

// probeObserve times one guard-banded SensorCtl.Observe over the
// fleet's sensor layout (one site per core plus die-wide processor and
// DRAM sites) with seeded readings.
func probeObserve(l *ledger) error {
	ev := perf.NewEvaluator()
	sites := ev.SimCfg.Cores + 2
	ctl, err := dtm.NewSensorCtl(dtm.GuardedPolicy, 3, sites, len(ev.Power.DVFS.Levels()))
	if err != nil {
		return err
	}
	limits := make([]float64, sites)
	for i := range limits {
		limits[i] = 100
	}
	const reps = 2000
	var k uint64
	l.set("dtm.observe_us", 1e6/reps*timeMedian(9, func() {
		for i := 0; i < reps; i++ {
			ctl.Observe(limits, func(s int) (float64, bool) {
				k++
				return 70 + 20*fault.Unit(2, streamSample, k, uint64(s)), true
			})
		}
	}))
	return nil
}
