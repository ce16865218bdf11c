package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/xylem-sim/xylem/internal/exp"
	"github.com/xylem-sim/xylem/internal/fault"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
	"github.com/xylem-sim/xylem/internal/workload"
)

// The fig7-sweep workload: a fresh exp.Runner runs Figure7() at grid 24
// with one MG-PCG solve path per point — 5 apps × 4 schemes × 4
// frequencies = 80 operating points, one app per call so the control
// can run between them — followed by a closed loop of single
// operating-point queries on the same runner.
var (
	fig7Apps    = []string{"lu-nas", "fft", "is", "radix", "mg"}
	fig7Freqs   = []float64{2.4, 2.8, 3.2, 3.5}
	fig7Schemes = []stack.SchemeKind{stack.Base, stack.Bank, stack.BankE, stack.Prior}
)

const (
	fig7Grid = 24
	// fig7AgreeC is how far a cold single-point query may sit from the
	// sweep's warm-started answer: the fast path's oracle tolerance.
	fig7AgreeC = 1e-3
	// fig7Gap is how many control bursts run before and after each
	// app's sweep: about 0.12 s.
	fig7Gap = 100
)

// Draw streams of the benchmark's seeded inputs (fault.Unit streams
// well clear of the program's own).
const (
	streamAppOrder = 1000 + iota
	streamQueryOrder
	streamPower
	streamTenant
	streamGaps
	streamSample
	streamFleetQuery
	streamFleetBatch
)

// shuffle permutes n indices by a seeded Fisher–Yates walk.
func shuffle(seed, stream uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(fault.Unit(seed, stream, uint64(i), 0) * float64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// seededApps returns the Figure 7 apps in a seed-chosen order. The table
// is checked after putting its rows back in canonical order.
func seededApps(seed uint64) []string {
	out := make([]string, len(fig7Apps))
	for i, j := range shuffle(seed, streamAppOrder, len(fig7Apps)) {
		out[i] = fig7Apps[j]
	}
	return out
}

func fig7Options(apps []string) exp.Options {
	o := exp.DefaultOptions()
	o.Apps = apps
	o.GridRows, o.GridCols = fig7Grid, fig7Grid
	o.Freqs = fig7Freqs
	o.Workers = 1
	return o
}

// checkFig7Table compares the table, rows restored to canonical app
// order, with the committed reference. Every point of a row that
// differs counts as failed.
func checkFig7Table(l *ledger, t exp.Table) {
	ref, err := readRef("fig7_table.txt")
	if err != nil {
		l.fail(len(fig7Apps)*len(fig7Schemes)*len(fig7Freqs), "fig7 reference: %v", err)
		return
	}
	rank := map[string]int{}
	for i, a := range fig7Apps {
		rank[a] = i
	}
	rows := append([][]string(nil), t.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rank[rows[i][0]] < rank[rows[j][0]] })
	t.Rows = rows
	got := t.String()
	if got == string(ref) {
		return
	}
	gl, rl := strings.Split(got, "\n"), strings.Split(string(ref), "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(rl); i++ {
		if i >= len(gl) || i >= len(rl) || gl[i] != rl[i] {
			bad++
		}
	}
	l.fail(bad*len(fig7Freqs), "fig7 table differs from reference on %d lines:\n%s", bad, got)
}

// newFig7Runner builds a runner as a user starting `xylem figure` would,
// plus the MG solver of every scheme the sweep visits, which Figure7
// would otherwise build on first use.
func newFig7Runner(apps []string) (*exp.Runner, error) {
	r, err := exp.NewRunner(fig7Options(apps))
	if err != nil {
		return nil, err
	}
	for _, k := range fig7Schemes {
		if _, err := r.Sys.Ev.SolverFor(r.Sys.Stack(k)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// One runner with its solvers takes about 9 ms at grid 24, too short to
// time alone, so setup_s times fig7SetupSamples blocks of fig7SetupBlock
// builds each, with a GC and a control burst before each block.
const (
	fig7SetupBlock   = 8
	fig7SetupSamples = 15
)

// fig7Setup times the runner builds and returns the last runner, the
// median raw time per build and the control's scale factor.
func fig7Setup(apps []string) (*exp.Runner, float64, float64, error) {
	var r *exp.Runner
	ctl := newControl()
	ts := make([]float64, fig7SetupSamples)
	for i := range ts {
		runtime.GC()
		ctl.burst()
		c0 := cpuSeconds()
		for b := 0; b < fig7SetupBlock; b++ {
			var err error
			if r, err = newFig7Runner(apps); err != nil {
				return nil, 0, 0, err
			}
		}
		ts[i] = (cpuSeconds() - c0) / fig7SetupBlock
	}
	ctl.burst()
	return r, median(ts), ctl.scale(), nil
}

// fig7Sweep runs Figure7 on r one app at a time, in the seeded app order,
// with a control gap before and after each app, and returns the whole
// sweep, its table, and its CPU time raw and at reference speed (each
// app's time scaled by the gaps around it). The apps' points are
// independent, so the sweep and table are those of one Figure7 call over
// every app.
func fig7Sweep(r *exp.Runner, apps []string, ctl *control) (exp.TempSweep, exp.Table, float64, float64, error) {
	var sweep exp.TempSweep
	var table exp.Table
	var cpu, ref float64
	defer func() { r.Opts.Apps = apps }()
	ctl.gap(fig7Gap)
	for _, a := range apps {
		from := ctl.mark() - fig7Gap
		r.Opts.Apps = []string{a}
		c0 := cpuSeconds()
		s, t, err := r.Figure7()
		d := cpuSeconds() - c0
		if err != nil {
			return sweep, table, 0, 0, err
		}
		ctl.gap(fig7Gap)
		cpu += d
		ref += d * ctl.scaleOver(from, ctl.mark())
		sweep.Points = append(sweep.Points, s.Points...)
		if table.Rows == nil {
			table = t
		} else {
			table.Rows = append(table.Rows, t.Rows...)
		}
	}
	return sweep, table, cpu, ref, nil
}

func runFig7(o opts, l *ledger) error {
	apps := seededApps(o.seed)
	r, setup, setupScale, err := fig7Setup(apps)
	if err != nil {
		return err
	}
	// The setup repetitions' garbage is not the run's footprint; what
	// setup keeps stays live and is counted.
	runtime.GC()
	heap := startHeapSampler()
	sweep, table, cpu, ref, err := fig7Sweep(r, apps, newControl())
	if err != nil {
		return err
	}
	l.attempt(len(sweep.Points))
	checkFig7Table(l, table)
	if err := checkQueries(r, o.seed, apps, sweep, l); err != nil {
		return err
	}
	l.setRef("setup_s", "setup_s", setup, setup*setupScale)
	l.setRef("work_ref_s", "sweep_s", cpu, ref)
	l.set("live_heap_mb", heap.medianMB())
	return nil
}

// checkQueries queries every point of the sweep again on its runner, in
// seeded order, as a user re-querying simulated workloads would: each
// solved from a cold temperature field (the activity is already cached).
// Each answer must agree with the sweep's warm-started one. The queries
// are a check, not timed: their cold solves' times swung by half from
// run to run, far more than the sweep's.
func checkQueries(r *exp.Runner, seed uint64, apps []string, sweep exp.TempSweep, l *ledger) error {
	n := len(apps) * len(fig7Freqs) * len(fig7Schemes)
	l.attempt(n)
	for _, idx := range shuffle(seed, streamQueryOrder, n) {
		k := fig7Schemes[idx%len(fig7Schemes)]
		idx /= len(fig7Schemes)
		app, err := workload.ByName(apps[idx/len(fig7Freqs)])
		if err != nil {
			return err
		}
		f := fig7Freqs[idx%len(fig7Freqs)]
		out, err := r.Sys.EvaluateUniform(k, app, f)
		if err != nil {
			l.fail(1, "fig7 query %s/%s/%.1f: %v", app.Name, k, f, err)
			continue
		}
		p, ok := sweep.Find(app.Name, k, f)
		if !ok || math.Abs(p.ProcHotC-out.ProcHotC) > fig7AgreeC || math.Abs(p.DRAM0HotC-out.DRAM0HotC) > fig7AgreeC {
			l.fail(1, "fig7 query %s/%s/%.1f: %.6f/%.6f °C, sweep %.6f/%.6f °C",
				app.Name, k, f, out.ProcHotC, out.DRAM0HotC, p.ProcHotC, p.DRAM0HotC)
		}
	}
	return nil
}

// replayFig7 re-runs the sweep through the layers' public functions in
// the sweep's own order — app × scheme chains, each walking the
// frequency ladder warm-started from the previous rung, Activity then
// ThermalWarmCtx per point — with a span around every call.
func replayFig7(r *exp.Runner, tr *tracer, root int, apps []string) (exp.TempSweep, error) {
	ctx := context.Background()
	ev := r.Sys.Ev
	var out exp.TempSweep
	for _, name := range apps {
		app, err := workload.ByName(name)
		if err != nil {
			return out, err
		}
		for _, k := range fig7Schemes {
			st := r.Sys.Stack(k)
			chain := tr.start("exp.chain", root, -1)
			var warm thermal.Temperature
			for _, f := range fig7Freqs {
				pt := tr.start("exp.point", chain, -1)
				freqs := r.Sys.Uniform(f)
				assigns := perf.UniformAssignments(app, ev.SimCfg.Cores)
				id := tr.start("cpusim.activity", pt, -1)
				res, err := ev.Activity(st.Cfg.NumDRAMDies, freqs, assigns)
				tr.end(id)
				if err != nil {
					return out, err
				}
				id = tr.start("perf.fixed_point", pt, -1)
				o, err := ev.ThermalWarmCtx(ctx, st, freqs, res, warm)
				tr.end(id)
				tr.end(pt)
				if err != nil {
					return out, fmt.Errorf("%s/%s/%.1f: %w", name, k, f, err)
				}
				warm = o.Temps
				out.Points = append(out.Points, exp.TempPoint{
					App: name, Scheme: k, GHz: f, ProcHotC: o.ProcHotC, DRAM0HotC: o.DRAM0HotC,
				})
			}
			tr.end(chain)
		}
	}
	return out, nil
}

// checkReplay requires every replayed point to equal the sweep's point
// bit for bit: the replay runs the sweep's own arithmetic in its order.
func checkReplay(l *ledger, sweep, replay exp.TempSweep) {
	l.attempt(len(replay.Points))
	if n := len(sweep.Points) - len(replay.Points); n > 0 {
		l.fail(n, "fig7 replay has %d points, sweep %d", len(replay.Points), len(sweep.Points))
	}
	for _, q := range replay.Points {
		p, ok := sweep.Find(q.App, q.Scheme, q.GHz)
		if !ok || math.Float64bits(p.ProcHotC) != math.Float64bits(q.ProcHotC) ||
			math.Float64bits(p.DRAM0HotC) != math.Float64bits(q.DRAM0HotC) {
			l.fail(1, "fig7 replay %s/%s/%.1f: %v/%v °C, sweep %v/%v °C",
				q.App, q.Scheme, q.GHz, q.ProcHotC, q.DRAM0HotC, p.ProcHotC, p.DRAM0HotC)
		}
	}
}

func tracedFig7(o opts, l *ledger) error {
	apps := seededApps(o.seed)
	tr := newTracer()
	r, _, _, err := fig7Setup(apps)
	if err != nil {
		return err
	}
	ctl := newControl()
	sweep, table, wall, _, err := fig7Sweep(r, apps, ctl)
	if err != nil {
		return err
	}
	l.attempt(len(sweep.Points))
	checkFig7Table(l, table)
	stats := r.Sys.Ev.Stats()

	// The replay runs twice on fresh runners, untraced then traced: the
	// same code, so the wall difference is what the spans cost.
	var walls [2]float64
	for i, t := range []*tracer{nil, tr} {
		r2, err := newFig7Runner(apps)
		if err != nil {
			return err
		}
		runtime.GC()
		root := t.start("exp.sweep", 0, -1)
		t1 := time.Now()
		replay, err := replayFig7(r2, t, root, apps)
		walls[i] = since(t1)
		t.end(root)
		if err != nil {
			return err
		}
		checkReplay(l, sweep, replay)
	}

	st := tr.stats()
	act, fp := st["cpusim.activity"], st["perf.fixed_point"]
	l.set("trace.overhead_s", walls[1]-walls[0])
	l.set("exp.self_s", wall-act.TotalS-fp.TotalS)
	l.set("control.burst_us", ctl.burstUS())
	setEvalCounts(l, stats, len(sweep.Points))
	runtime.GC()
	if err := runProbes(l, tr); err != nil {
		return err
	}
	zeroAbsent(l)
	return tr.dump(o)
}
