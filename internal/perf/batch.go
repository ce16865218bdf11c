package perf

import (
	"context"
	"fmt"
	"math"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/obs"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// Batched evaluation: the power/thermal fixed points of several
// independent operating points on the same stack, run in lockstep so
// every leakage iteration issues one multi-RHS batched solve instead of
// k mutex-serialised single solves. Each point's arithmetic — power
// maps, solver recurrence, convergence test — is identical to its
// sequential ThermalWarmCtx evaluation (the batched solver is
// bitwise-equal per column, and the leakage loop below replays the
// sequential bookkeeping per point), so batched outcomes match
// per-point outcomes exactly; batching is purely a throughput lever.
// Points retire from the batch as their own fixed point converges, so
// a fast-converging point stops paying for solves it wouldn't have run
// sequentially either.

// ThermalBatchPoint is one operating point of a batched thermal
// evaluation: an activity result with its frequencies, plus an optional
// warm-start field for the first solve (the previous rung of a
// frequency ladder).
type ThermalBatchPoint struct {
	Freqs []float64
	Res   cpusim.Result
	Warm  thermal.Temperature
}

// noteBatch records one batched solver call: per-column counters
// exactly as k sequential noteSolve calls would (so Solves/SolveIters/
// IterHist/VCycles are batching-invariant), plus the batch-level
// counters (calls, columns carried, occupancy, deflation).
func (e *Evaluator) noteBatch(res thermal.BatchResult, k int) {
	m := e.metrics()
	for j := 0; j < k; j++ {
		m.solves.Inc()
		m.solveIters.Add(int64(res.Iters[j]))
		m.vcycles.Add(int64(res.VCycles[j]))
		m.iterHist.Observe(float64(res.Iters[j]))
		if res.Replacements[j] > 0 {
			m.residualRepl.Add(int64(res.Replacements[j]))
		}
		if res.DriftCorrections[j] > 0 {
			m.driftCorr.Add(int64(res.DriftCorrections[j]))
		}
	}
	m.batchedSolves.Inc()
	m.batchedColumns.Add(int64(k))
	m.deflatedCols.Add(int64(res.Deflated))
	m.batchOcc.Observe(float64(k))
}

// ThermalBatchCtx runs the power/thermal fixed point of every point in
// lockstep on one stack and returns their outcomes in order. Outcome i
// equals ThermalWarmCtx(ctx, st, pts[i].Freqs, pts[i].Res, pts[i].Warm)
// exactly. Any point's unrecoverable failure fails the call — the same
// first-error semantics the per-point drivers have.
func (e *Evaluator) ThermalBatchCtx(ctx context.Context, st *stack.Stack, pts []ThermalBatchPoint) ([]Outcome, error) {
	k := len(pts)
	outs := make([]Outcome, k)
	if k == 0 {
		return outs, nil
	}
	for _, pt := range pts {
		if pt.Res.TimeNs <= 0 {
			return nil, fmt.Errorf("perf: activity has zero duration")
		}
	}
	if err := e.validateFixedPoint(); err != nil {
		return nil, err
	}
	sl, err := e.slot(st)
	if err != nil {
		return nil, err
	}

	// Fast-path routing. The reduced model serves each point directly — a
	// GEMV per leakage iteration has nothing to gain from multi-RHS
	// batching, and per-point serving preserves exactly the per-point
	// fixed-point arithmetic. Oracle mode runs the batched CG path below
	// and compares every point's outcome afterwards; a missing basis
	// falls back to batched CG with the fallback solves counted.
	fellBack := false
	var oracleEnt *greensEntry
	switch e.FastPath {
	case FastPathOn:
		ent, gerr := e.greensFor(ctx, st, sl)
		if gerr == nil {
			for i, pt := range pts {
				out, ferr := e.greensFixedPoint(ctx, st, sl, ent, pt.Freqs, pt.Res, nil)
				if ferr != nil {
					return nil, ferr
				}
				outs[i] = out
			}
			return outs, nil
		}
		if ctx.Err() != nil {
			return nil, gerr
		}
		fellBack = true
	case FastPathOracle:
		ent, gerr := e.greensFor(ctx, st, sl)
		if gerr == nil {
			oracleEnt = ent
		} else {
			if ctx.Err() != nil {
				return nil, gerr
			}
			fellBack = true
		}
	}

	// Per-point fixed-point state, mirroring ThermalWarmCtx's locals —
	// including the per-point leakage accounting ThermalWarmCtx emits, so
	// the metrics are batching-invariant like the results.
	m := e.metrics()
	sp := m.trace.Start("perf.fixed_point_batch")
	temps := make([]thermal.Temperature, k)
	seed := make([]thermal.Temperature, k)
	prevHot := make([]float64, k)
	itersUsed := make([]int, k)
	delta := make([]float64, k)
	converged := make([]bool, k)
	for i, pt := range pts {
		seed[i] = pt.Warm
		prevHot[i] = math.Inf(-1)
		delta[i] = math.Inf(1)
	}

	blockTemp := func(i int) func(string) float64 {
		return func(name string) float64 {
			if temps[i] == nil {
				return e.Power.TRefC
			}
			b, ok := st.Proc.Find(name)
			if !ok {
				return e.Power.TRefC
			}
			return temps[i].MeanOver(st.Model.Grid, st.ProcMetalLayer, b.Rect)
		}
	}

	active := make([]int, 0, k)
	for i := range pts {
		active = append(active, i)
	}
	pms := make([]thermal.PowerMap, 0, k)
	warms := make([]thermal.Temperature, 0, k)
	for iter := 0; iter < e.LeakageIters && len(active) > 0; iter++ {
		// Build each active point's power map against its own current
		// temperature field — the same leakage feedback the sequential
		// loop computes.
		pms, warms = pms[:0], warms[:0]
		for _, i := range active {
			pt := pts[i]
			procBP, err := e.Power.ProcPower(st.Proc, pt.Res, pt.Freqs, pt.Res.TimeNs, blockTemp(i))
			if err != nil {
				return nil, err
			}
			sliceP, err := e.Power.DRAMPower(pt.Res.DRAM, st.Cfg.NumDRAMDies, pt.Res.TimeNs)
			if err != nil {
				return nil, err
			}
			pm, err := e.buildPowerMap(st, procBP, sliceP)
			if err != nil {
				return nil, err
			}
			pms = append(pms, pm)
			warms = append(warms, seed[i])
			outs[i].ProcPowerW = power.TotalProc(procBP)
			outs[i].DRAMPowerW = power.TotalDRAM(sliceP)
		}

		deg := degradeFrom(ctx)
		sl.mu.Lock()
		bres, err := sl.s.SteadyStateBatch(ctx, pms, thermal.BatchOpts{
			Warm: warms, Tol: deg.tol(sl.s.Tol), Precond: deg.Precond,
		})
		e.noteBatch(bres, len(active))
		if fellBack {
			m.greensMisses.Add(int64(len(active)))
		}
		sl.mu.Unlock()
		if err != nil {
			return nil, err
		}
		next := active[:0]
		for c, i := range active {
			t := bres.Temps[c]
			if bres.Errs[c] != nil {
				// The batched attempt is bitwise-equal to the sequential
				// first attempt, so the relaxed-retry ladder picks up
				// exactly where the per-point path would.
				t, err = e.retryRelaxed(ctx, sl, pms[c], warms[c], bres.Errs[c])
				if err != nil {
					return nil, err
				}
			}
			temps[i] = t
			seed[i] = t
			hot, _ := t.Max(st.ProcMetalLayer)
			outs[i].ProcHotC = hot
			itersUsed[i], delta[i] = iter+1, math.Abs(hot-prevHot[i])
			if delta[i] < e.ConvergeC {
				converged[i] = true
				continue // this point's fixed point has converged: retire it
			}
			prevHot[i] = hot
			next = append(next, i)
		}
		active = next
	}

	nExhausted := 0
	for i := 0; i < k; i++ {
		m.leakIters.Observe(float64(itersUsed[i]))
		m.leakDelta.Set(delta[i])
		if !converged[i] {
			m.leakExhausted.Inc()
			nExhausted++
		}
	}
	sp.End(obs.A("points", float64(k)), obs.A("exhausted", float64(nExhausted)))

	for i, pt := range pts {
		d0, _ := temps[i].Max(st.DRAMMetalLayers[0])
		outs[i].DRAM0HotC = d0
		outs[i].CoreHotC = make([]float64, len(pt.Res.Cores))
		for c := range pt.Res.Cores {
			outs[i].CoreHotC[c] = temps[i].MaxOver(st.Model.Grid, st.ProcMetalLayer, st.Proc.CoreRect(c))
		}
		outs[i].TimeNs = pt.Res.TimeNs
		outs[i].ThroughputGIPS = pt.Res.Throughput() / 1e9
		outs[i].EnergyJ = (outs[i].ProcPowerW + outs[i].DRAMPowerW) * pt.Res.TimeNs * 1e-9
		outs[i].Temps = temps[i]
		outs[i].Result = pt.Res
	}

	// Oracle mode: replay every point on the reduced model and gate the
	// batched CG outcomes on agreement within OracleTolC.
	if oracleEnt != nil {
		for i, pt := range pts {
			fast, ferr := e.greensFixedPoint(ctx, st, sl, oracleEnt, pt.Freqs, pt.Res, nil)
			if ferr != nil {
				return nil, ferr
			}
			if err := oracleCompare(fast, outs[i]); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
}
