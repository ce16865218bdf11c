package perf

// Direct solve surface for the serving daemon (internal/serve): explicit
// power-map solves that go through the same slot locking, degradation
// ladder and work accounting as the evaluation pipeline, without the
// activity/leakage stages. The daemon must never call *thermal.Solver
// methods directly — a solver's scratch buffers admit one solve at a
// time, and only the evaluator's solverSlot lock enforces that.

import (
	"context"
	"fmt"

	"github.com/xylem-sim/xylem/internal/cpusim"
	"github.com/xylem-sim/xylem/internal/power"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// BuildPowerMap distributes explicit block and slice powers onto the
// stack's thermal grid — the exported face of the pipeline's power-map
// assembly, for callers that carry wire-level watts instead of an
// activity result.
func (e *Evaluator) BuildPowerMap(st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.PowerMap, error) {
	return e.buildPowerMap(st, procBP, sliceP)
}

// SolveBatch runs one multi-RHS steady-state solve over the power maps
// on the stack's cached solver. Column j's temperature is bitwise
// identical to a solo SolveBatch call with pms[j] alone (the batched
// solver's per-column contract), so a serving layer can coalesce
// requests freely without changing any response. Failures are
// per-column: a diverged column walks the relaxed-tolerance retry
// ladder exactly as a sequential solve would, and an unrecoverable
// column reports its error in errs[j] without failing its batchmates.
// The call-level error covers only whole-batch failures (bad width,
// solver construction).
func (e *Evaluator) SolveBatch(ctx context.Context, st *stack.Stack, pms []thermal.PowerMap) ([]thermal.Temperature, []error, error) {
	k := len(pms)
	if k == 0 {
		return nil, nil, nil
	}
	sl, err := e.slot(st)
	if err != nil {
		return nil, nil, err
	}
	temps := make([]thermal.Temperature, k)
	errs := make([]error, k)
	if k == 1 {
		// The batched solver short-circuits width 1 to the sequential
		// path; routing it through steadyState keeps the solo/batched
		// accounting split (noteSolve vs noteBatch) meaningful.
		temps[0], errs[0] = e.steadyState(ctx, sl, pms[0], nil)
		return temps, errs, nil
	}
	deg := degradeFrom(ctx)
	sl.mu.Lock()
	bres, berr := sl.s.SteadyStateBatch(ctx, pms, thermal.BatchOpts{
		Tol: deg.tol(sl.s.Tol), Precond: deg.Precond,
	})
	e.noteBatch(bres, k)
	sl.mu.Unlock()
	if berr != nil {
		return nil, nil, berr
	}
	for j := range pms {
		temps[j] = bres.Temps[j]
		if bres.Errs[j] == nil {
			continue
		}
		// The batched attempt is bitwise-equal to a sequential first
		// attempt, so the retry ladder resumes exactly where a solo
		// solve's would.
		t, rerr := e.retryRelaxed(ctx, sl, pms[j], nil, bres.Errs[j])
		if rerr != nil {
			temps[j], errs[j] = nil, rerr
			continue
		}
		temps[j] = t
	}
	return temps, errs, nil
}

// SolveGreens serves one explicit-power steady-state query from the
// stack's Green's-function basis: fold the watts onto the basis columns
// and reconstruct the field with one fused GEMV — O(blocks) work per
// cell instead of a Krylov solve. The basis is built (singleflight,
// counted in BasisBuilds) on first use for the stack's content key.
func (e *Evaluator) SolveGreens(ctx context.Context, st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower) (thermal.Temperature, error) {
	return e.SolveGreensLayers(ctx, st, procBP, sliceP, nil)
}

// SolveGreensLayers is SolveGreens reconstructing only the listed layers
// (thermal.Solver.GreensLayers): the returned field holds those layers,
// each bit-identical to SolveGreens's, and nil elsewhere. A nil list
// means every layer. A caller that reads two layers of a 29-layer stack
// pays for two layers' GEMV instead of twenty-nine.
func (e *Evaluator) SolveGreensLayers(ctx context.Context, st *stack.Stack, procBP []power.BlockPower, sliceP []power.SlicePower, layers []int) (thermal.Temperature, error) {
	sl, err := e.slot(st)
	if err != nil {
		return nil, err
	}
	ent, err := e.greensFor(ctx, st, sl)
	if err != nil {
		return nil, err
	}
	p := make([]float64, ent.gb.B)
	if err := ent.powerCoeffs(st, procBP, sliceP, p); err != nil {
		return nil, err
	}
	sl.mu.Lock()
	temps, err := sl.s.GreensLayers(ent.gb, p, layers)
	sl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	e.metrics().greensHits.Inc()
	return temps, nil
}

// ThermalFastCtx runs the power/thermal fixed point of one activity
// result on the Green's-function reduced model, regardless of the
// evaluator's FastPath field — the per-request fast-path knob the
// serving daemon exposes. Unlike ThermalWarmCtx with FastPathOn there
// is no silent CG fallback: a stack whose basis cannot be built returns
// the build error, so the caller knows the query was never served.
// layers selects the layers the outcome's Temps reconstructs: nil means
// every layer; a list must include the proc metal layer and DRAM die
// 0's metal layer, which the outcome's hotspots read.
func (e *Evaluator) ThermalFastCtx(ctx context.Context, st *stack.Stack, freqs []float64, res cpusim.Result, layers []int) (Outcome, error) {
	if res.TimeNs <= 0 {
		return Outcome{}, fmt.Errorf("perf: activity has zero duration")
	}
	if err := e.validateFixedPoint(); err != nil {
		return Outcome{}, err
	}
	sl, err := e.slot(st)
	if err != nil {
		return Outcome{}, err
	}
	ent, err := e.greensFor(ctx, st, sl)
	if err != nil {
		return Outcome{}, err
	}
	return e.greensFixedPoint(ctx, st, sl, ent, freqs, res, layers)
}
