package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"github.com/xylem-sim/xylem/internal/core"
	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/dtm"
	"github.com/xylem-sim/xylem/internal/fleet"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
)

// The fleet-replay workload: fleet.New + Engine.Run with no checkpoint —
// grid 16, shape mixed, default fault rates, 200 stacks, batch width 16,
// one worker — after a loop of single-stack control events (activity,
// leakage fixed point, sensor-driven DVFS decision) that checks the
// solves the replay batches.
const (
	fleetStacks = 200
	// fleetEventsPerSecond sizes the replay: this many events per second
	// of --seconds.
	fleetEventsPerSecond = 40
	// fleetSetupReps is how often setup_s prepares a run: about 0.6 s
	// a time, most of it simulating the control events' activity.
	fleetSetupReps = 5
	// fleetSetupGap and fleetReplayGap are how many control bursts run
	// around each setup and around the replay.
	fleetSetupGap  = 24
	fleetReplayGap = 200
)

func fleetConfig(o opts) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Stacks = fleetStacks
	cfg.Events = fleetEventsPerSecond * o.seconds
	cfg.Seed = o.seed
	cfg.BatchWidth = 16
	cfg.Workers = 1
	return cfg
}

// fleetSetup prepares what a run needs before it measures — the engine
// and the control-event system with every grid point's activity
// simulated — fleetSetupReps times, a GC and a control gap before each,
// and returns the last pair, the median raw preparation time and the
// control's scale factor.
func fleetSetup(cfg fleet.Config) (*fleet.Engine, *fleetEvents, float64, float64, error) {
	var e *fleet.Engine
	var f *fleetEvents
	ctl := newControl()
	ts := make([]float64, fleetSetupReps)
	for i := range ts {
		runtime.GC()
		ctl.gap(fleetSetupGap)
		c0 := cpuSeconds()
		var err error
		if e, err = fleet.New(cfg); err != nil {
			return nil, nil, 0, 0, err
		}
		if f, err = newFleetEvents(cfg); err != nil {
			return nil, nil, 0, 0, err
		}
		ts[i] = cpuSeconds() - c0
	}
	ctl.gap(fleetSetupGap)
	return e, f, median(ts), ctl.scale(), nil
}

// fleetCounts parses the report's event accounting line.
func fleetCounts(report string) (events, solves, faults int, err error) {
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "injected solver faults") {
			var rounds int
			var period float64
			_, err = fmt.Sscanf(strings.TrimSpace(line),
				"rounds %d  events %d  period %fms  solves %d  injected solver faults %d",
				&rounds, &events, &period, &solves, &faults)
			return events, solves, faults, err
		}
	}
	return 0, 0, 0, fmt.Errorf("fleet report has no event line:\n%s", report)
}

// checkFleet verifies the replay: solves plus injected faults account
// for every event, no NaN appears, and where a reference exists for this
// seed and length the report matches it byte for byte. The first two
// hold by construction of the engine; fleetEvents.checkBatch is the
// check of the batched solves that can fail at any seed.
func checkFleet(l *ledger, cfg fleet.Config, report string) (events, solves, faults int) {
	events, solves, faults, err := fleetCounts(report)
	if err != nil {
		l.attempt(cfg.Events)
		l.fail(cfg.Events, "%v", err)
		return 0, 0, 0
	}
	l.attempt(events)
	if solves+faults != events {
		l.fail(events, "fleet: %d solves + %d faults != %d events", solves, faults, events)
	}
	if strings.Contains(report, "NaN") {
		l.fail(events, "fleet report has NaN:\n%s", report)
	}
	ref, err := readRef(fmt.Sprintf("fleet_seed%d_events%d.txt", cfg.Seed, cfg.Events))
	if err == nil && string(ref) != report {
		l.fail(events, "fleet report differs from reference:\n%s", report)
	} else if err != nil && !os.IsNotExist(err) {
		l.fail(events, "fleet reference: %v", err)
	}
	return events, solves, faults
}

// fleetEventThreads are the thread counts of the control-event loop;
// fleetEventPasses how often it walks its grid.
var fleetEventThreads = []int{1, 2, 4, 8}

const fleetEventPasses = 4

// fleetEvent is one control-event operating point.
type fleetEvent struct {
	freqs   []float64
	assigns []cpusim.Assignment
}

// fleetEvents runs single-stack control events on a fresh system shaped
// like the engine's, over the grid apps × fleetEventThreads × {floor,
// middle, top DVFS level}. Each event looks up its activity, runs the
// leakage fixed point from a cold field (so its cost does not depend on
// the event before it) and lets the guard-banded controller decide.
type fleetEvents struct {
	sys    *core.System
	st     *stack.Stack
	ctl    *dtm.SensorCtl
	grid   []fleetEvent
	sites  []int
	limits []float64

	// solo holds each grid point's first hotspot pair, which later
	// visits and the batch check must reproduce bit for bit.
	solo map[int][2]float64

	// events counts the events run and cpu their total CPU seconds.
	events int
	cpu    float64
}

// newFleetEvents builds the system and simulates every grid point's
// activity, untimed: a long replay finds nearly every activity cached.
func newFleetEvents(cfg fleet.Config) (*fleetEvents, error) {
	ccfg := core.DefaultConfig()
	ccfg.Stack.GridRows, ccfg.Stack.GridCols = cfg.Grid, cfg.Grid
	sys, err := core.NewSystem(ccfg)
	if err != nil {
		return nil, err
	}
	st := sys.Stack(cfg.Scheme)
	levels := sys.DTM.DVFS.Levels()
	f := &fleetEvents{
		sys: sys, st: st,
		sites:  []int{st.ProcMetalLayer, st.DRAMMetalLayers[0]},
		limits: []float64{sys.DTM.Limits.ProcMaxC, sys.DTM.Limits.DRAMMaxC},
		solo:   map[int][2]float64{},
	}
	if f.ctl, err = dtm.NewSensorCtl(cfg.Policy, cfg.GuardC, len(f.sites), len(levels)); err != nil {
		return nil, err
	}
	if _, err := sys.Ev.SolverFor(st); err != nil {
		return nil, err
	}
	for _, lvl := range []int{0, len(levels) / 2, len(levels) - 1} {
		for _, threads := range fleetEventThreads {
			for _, name := range cfg.Apps {
				app, err := appProfile(name, cfg.Instructions)
				if err != nil {
					return nil, err
				}
				e := fleetEvent{sys.Uniform(levels[lvl]), perf.UniformAssignments(app, min(threads, sys.Ev.SimCfg.Cores))}
				if _, err := sys.Ev.Activity(st.Cfg.NumDRAMDies, e.freqs, e.assigns); err != nil {
					return nil, err
				}
				f.grid = append(f.grid, e)
			}
		}
	}
	return f, nil
}

// order returns the seeded visiting order of fleetEventPasses walks of
// the grid.
func (f *fleetEvents) order(seed uint64) []int {
	return shuffle(seed, streamFleetQuery, fleetEventPasses*len(f.grid))
}

// run runs the events at order (indices into fleetEventPasses walks of
// the grid) and adds up their CPU time.
func (f *fleetEvents) run(order []int, l *ledger, tr *tracer) error {
	ctx := context.Background()
	ev := f.sys.Ev
	l.attempt(len(order))
	for _, idx := range order {
		e := f.grid[idx%len(f.grid)]
		root := tr.start("fleet.event", 0, -1)
		c0 := cpuSeconds()
		id := tr.start("cpusim.activity", root, -1)
		res, err := ev.Activity(f.st.Cfg.NumDRAMDies, e.freqs, e.assigns)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("perf.fixed_point", root, -1)
		out, err := ev.ThermalCtx(ctx, f.st, e.freqs, res)
		tr.end(id)
		if err == nil {
			id = tr.start("dtm.observe", root, -1)
			f.ctl.Observe(f.limits, func(s int) (float64, bool) {
				v, _ := out.Temps.Max(f.sites[s])
				return v, true
			})
			tr.end(id)
		}
		d := cpuSeconds() - c0
		tr.end(root)
		f.events++
		f.cpu += d
		switch {
		case err != nil:
			l.fail(1, "fleet event %d: %v", idx, err)
			continue
		case math.IsNaN(out.ProcHotC) || math.IsNaN(out.DRAM0HotC):
			l.fail(1, "fleet event %d: NaN hotspot", idx)
			continue
		}
		g := idx % len(f.grid)
		got := [2]float64{out.ProcHotC, out.DRAM0HotC}
		if want, ok := f.solo[g]; !ok {
			f.solo[g] = got
		} else if !sameBits(got, want) {
			l.fail(1, "fleet event %d: %v °C, earlier visit %v °C", idx, got, want)
		}
	}
	return nil
}

// sameBits reports whether two hotspot pairs are bit-for-bit equal.
func sameBits(a, b [2]float64) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) && math.Float64bits(a[1]) == math.Float64bits(b[1])
}

// checkBatch re-solves a seeded sample of width grid points as one
// ThermalBatchCtx batch, the path the replay's solves take, and requires
// every column to equal the point's solo ThermalCtx outcome from the
// event loop bit for bit, as perf promises.
func (f *fleetEvents) checkBatch(seed uint64, width int, l *ledger) error {
	ev := f.sys.Ev
	idx := shuffle(seed, streamFleetBatch, len(f.grid))[:min(width, len(f.grid))]
	pts := make([]perf.ThermalBatchPoint, len(idx))
	for i, g := range idx {
		e := f.grid[g]
		res, err := ev.Activity(f.st.Cfg.NumDRAMDies, e.freqs, e.assigns)
		if err != nil {
			return err
		}
		pts[i] = perf.ThermalBatchPoint{Freqs: e.freqs, Res: res}
	}
	l.attempt(len(idx))
	outs, err := ev.ThermalBatchCtx(context.Background(), f.st, pts)
	if err != nil {
		l.fail(len(idx), "fleet batch check: %v", err)
		return nil
	}
	for i, g := range idx {
		got := [2]float64{outs[i].ProcHotC, outs[i].DRAM0HotC}
		if want, ok := f.solo[g]; !ok || !sameBits(got, want) {
			l.fail(1, "fleet batch column %d (grid point %d): %v °C, solo %v °C", i, g, got, want)
		}
	}
	return nil
}

// replay runs e with a control gap before and after it and bursts all
// through it (see samplingCtx), and returns the report, the replay's CPU
// time with the bursts left out, raw and at reference speed, and the
// control.
func replay(e *fleet.Engine, tr *tracer) (string, float64, float64, *control, error) {
	ctl := newControl()
	ctl.gap(fleetReplayGap)
	ctx := newSamplingCtx(ctl)
	id := tr.start("fleet.run", 0, -1)
	report, err := e.Run(ctx)
	ctx.book()
	tr.end(id)
	ctl.gap(fleetReplayGap)
	return report, sum(ctx.pieces), ctx.refSeconds(), ctl, err
}

func runFleet(o opts, l *ledger) error {
	cfg := fleetConfig(o)
	e, f, setup, setupScale, err := fleetSetup(cfg)
	if err != nil {
		return err
	}
	// The setup repetitions' garbage is not the run's footprint; what
	// setup keeps stays live and is counted.
	runtime.GC()
	heap := startHeapSampler()
	if err := f.run(f.order(o.seed), l, nil); err != nil {
		return err
	}
	report, cpu, ref, _, err := replay(e, nil)
	if err != nil {
		return err
	}
	live := heap.medianMB()
	checkFleet(l, cfg, report)
	if err := f.checkBatch(o.seed, cfg.BatchWidth, l); err != nil {
		return err
	}
	l.setRef("setup_s", "setup_s", setup, setup*setupScale)
	l.setRef("work_ref_s", "replay_s", cpu, ref)
	l.set("live_heap_mb", live)
	return nil
}

// tracedFleet replays once, and runs the control events twice, untraced
// then traced: the same code, so their wall difference is what the spans
// cost. The replay itself carries one span, around Engine.Run.
func tracedFleet(o opts, l *ledger) error {
	tr := newTracer()
	cfg := fleetConfig(o)
	e, f, _, _, err := fleetSetup(cfg)
	if err != nil {
		return err
	}
	order := f.order(o.seed)
	if err := f.run(order, l, nil); err != nil {
		return err
	}
	untraced := f.cpu
	if err := f.run(order, l, tr); err != nil {
		return err
	}
	traced := f.cpu - untraced

	report, cpu, _, ctl, err := replay(e, tr)
	if err != nil {
		return err
	}
	_, solves, faults := checkFleet(l, cfg, report)
	setEvalCounts(l, f.sys.Ev.Stats(), f.events)
	if err := f.checkBatch(o.seed, cfg.BatchWidth, l); err != nil {
		return err
	}
	runtime.GC()
	if err := runProbes(l, tr); err != nil {
		return err
	}
	l.set("trace.overhead_s", traced-untraced)
	l.set("fleet.solves", float64(solves))
	l.set("fleet.injected_faults", float64(faults))
	l.set("fleet.self_s", cpu-float64(solves)*l.vals["perf.batch_fixed_point_col_ms"]/1e3)
	l.set("control.burst_us", ctl.burstUS())
	zeroAbsent(l)
	return tr.dump(o)
}
