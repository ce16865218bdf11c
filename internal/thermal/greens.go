package thermal

// Green's-function reduced-order fast path.
//
// The steady-state operator is linear and its zero-power solution is
// exactly the uniform ambient field (every row reads (gAmb_i + Σg_ij)·T
// − Σg_ij·T = gAmb_i·T_amb at T = T_amb), so any power map assembled
// from a fixed set of rectangular block sources decomposes exactly:
//
//	T(P) = T_amb·1 + Σ_b p_b · G_b
//
// where G_b solves G·G_b = e_b for the unit-power (1 W) source shape of
// block b with a zero right-hand side everywhere else — no ambient term,
// cold start at zero, so the unit solve's relative tolerance is scaled
// to the response field itself rather than to the ~300× larger absolute
// temperature level. PowerMap.AddBlock is linear in the block power, so
// the decomposition is exact up to solver tolerance for every power map
// built from the same source rectangles.
//
// A GreensBasis stores the B response fields cell-major — G[i*B + b] is
// source b's response at global cell i — so serving a query is one fused
// GEMV over blocks per cell: O(cells × B) with perfect streaming access,
// instead of a full MG-preconditioned CG solve. The GEMV runs on the
// fixed-chunk machinery of parallel.go with a fixed per-cell accumulation
// order (four partial accumulators combined in a fixed tree, then a
// sequential tail), so results are bitwise-identical at any Workers
// setting — the same determinism contract every solver kernel carries.
//
// Basis construction is one wide multi-RHS solve per bounded-width chunk
// of columns (the batch scratch is ~6·n·k floats, so an unbounded-width
// build over a few hundred sources would dwarf the solver itself), run
// through the same lockstep cgBatch as SteadyStateBatch — deflation,
// per-column budgets and the solve hook behave exactly as k sequential
// solves would.

import (
	"context"
	"fmt"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/geom"
)

// UnitSource is one basis column: unit power (1 W) spread uniformly over
// Rect on layer Layer, distributed over grid cells exactly as
// PowerMap.AddBlock distributes block power.
type UnitSource struct {
	// Name identifies the column (floorplan block name, background term)
	// so callers can map power coefficients onto columns and diagnostics
	// can name a failing solve.
	Name string
	// Layer is the model layer index the source injects into.
	Layer int
	// Rect is the source footprint on the die plane.
	Rect geom.Rect
}

// GreensBasis is a precomputed set of unit-power response fields for one
// (model × source list): the reduced-order model a query is served from.
// It is immutable after construction and safe to share across solvers of
// the same model.
type GreensBasis struct {
	// Rows, Cols and Layers pin the grid and stack shape the basis was
	// built for; queries against a differently-shaped solver are rejected.
	Rows, Cols, Layers int
	// B is the number of basis columns (unit sources).
	B int
	// Ambient is the ambient temperature the uniform background term
	// adds back, °C.
	Ambient float64
	// Names records each column's source name, in column order.
	Names []string
	// G holds the response fields cell-major: G[i*B + b] is column b's
	// temperature response (°C per watt) at global cell i.
	G []float64
}

// Cells returns the number of cells per stored field.
func (gb *GreensBasis) Cells() int { return gb.Rows * gb.Cols * gb.Layers }

// greensBuildWidth bounds the batch width of one basis-construction
// solve. The batched CG scratch is ~6·n·k floats plus the multigrid
// hierarchy's per-level copies, so building a few hundred columns in one
// batch would allocate several times the basis itself; 16-wide chunks
// keep the scratch bounded while still amortising the operator sweep.
const greensBuildWidth = 16

// greensCompat rejects a basis built for a different grid or stack shape.
func (s *Solver) greensCompat(gb *GreensBasis) error {
	if gb.Rows != s.rows || gb.Cols != s.cols || gb.Layers != len(s.m.Layers) {
		return fmt.Errorf("thermal: greens basis shaped %dx%dx%d, solver is %dx%dx%d",
			gb.Rows, gb.Cols, gb.Layers, s.rows, s.cols, len(s.m.Layers))
	}
	if len(gb.G) != s.n*gb.B {
		return fmt.Errorf("thermal: greens basis has %d coefficients, want %d", len(gb.G), s.n*gb.B)
	}
	return nil
}

// unitRHS scatters src's unit power into the flat right-hand-side vector
// b, replicating PowerMap.AddBlock's per-cell weights with blockPower=1.
func (s *Solver) unitRHS(src UnitSource, b []float64) error {
	if src.Layer < 0 || src.Layer >= len(s.m.Layers) {
		return fmt.Errorf("thermal: greens source %q on layer %d of %d", src.Name, src.Layer, len(s.m.Layers))
	}
	area := src.Rect.Area()
	if area <= 0 {
		return fmt.Errorf("thermal: greens source %q has area %g", src.Name, area)
	}
	g := s.m.Grid
	cellArea := g.CellArea()
	g.OverlapFractions(src.Rect, func(row, col int, frac float64) {
		b[s.idx(src.Layer, g.Index(row, col))] += frac * cellArea / area
	})
	return nil
}

// BuildGreensBasis precomputes the unit-power response field of every
// source by chunked multi-RHS solves at the solver's tolerance and
// default preconditioner. The solve hook is consulted once per column,
// exactly as B sequential solves would consult it; any column's failure
// fails the build (callers fall back to per-query CG).
func (s *Solver) BuildGreensBasis(ctx context.Context, sources []UnitSource) (*GreensBasis, error) {
	B := len(sources)
	if B == 0 {
		return nil, fmt.Errorf("thermal: greens basis needs at least one source")
	}
	gb := &GreensBasis{
		Rows: s.rows, Cols: s.cols, Layers: len(s.m.Layers),
		B: B, Ambient: s.m.Ambient,
		Names: make([]string, B),
		G:     make([]float64, s.n*B),
	}
	for i, src := range sources {
		gb.Names[i] = src.Name
	}
	for lo := 0; lo < B; lo += greensBuildWidth {
		hi := lo + greensBuildWidth
		if hi > B {
			hi = B
		}
		if err := s.solveUnitChunk(ctx, sources[lo:hi], gb, lo); err != nil {
			return nil, err
		}
	}
	return gb, nil
}

// solveUnitChunk solves G·x = e_b for one contiguous chunk of sources
// and scatters the solutions into gb's cell-major store at column offset
// colBase. Right-hand sides carry no ambient term and iterates cold-start
// at zero (the response-field formulation above), so it assembles the
// batch directly instead of going through SteadyStateBatch.
func (s *Solver) solveUnitChunk(ctx context.Context, sources []UnitSource, gb *GreensBasis, colBase int) error {
	k := len(sources)
	B := gb.B
	if k == 1 {
		// One column: the plain CG path, like SteadyStateBatch's k==1
		// short-circuit.
		b := make([]float64, s.n)
		if err := s.unitRHS(sources[0], b); err != nil {
			return err
		}
		x := make([]float64, s.n)
		if _, err := s.cg(ctx, b, x, 0, SolveOpts{}); err != nil {
			return fmt.Errorf("thermal: greens column %q: %w", sources[0].Name, err)
		}
		for i, v := range x {
			gb.G[i*B+colBase] = v
		}
		return nil
	}

	bs := s.ensureBatch(k)
	rhs := make([]float64, s.n)
	for j, src := range sources {
		for i := range rhs {
			rhs[i] = 0
		}
		if err := s.unitRHS(src, rhs); err != nil {
			return err
		}
		for i, v := range rhs {
			bs.bvec[i*k+j] = v
			bs.xvec[i*k+j] = 0
		}
	}

	res := BatchResult{
		Temps:   make([]Temperature, k),
		Errs:    make([]error, k),
		Iters:   make([]int, k),
		VCycles: make([]int, k),
	}
	maxIter := make([]int, k)
	injected := make([]bool, k)
	live := make([]int, 0, k)
	for j := range sources {
		maxIter[j] = s.MaxIter
		if s.Hook != nil {
			mi, err := s.Hook()
			if err != nil {
				return fmt.Errorf("thermal: greens column %q: %w", sources[j].Name, err)
			}
			if mi > 0 && mi < maxIter[j] {
				maxIter[j], injected[j] = mi, true
			}
		}
		live = append(live, j)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("thermal: greens build cancelled: %w", err)
	}
	if err := s.cgBatch(ctx, bs, &res, live, maxIter, injected, BatchOpts{}); err != nil {
		return err
	}
	for j, src := range sources {
		if res.Errs[j] != nil {
			return fmt.Errorf("thermal: greens column %q: %w", src.Name, res.Errs[j])
		}
		for i := 0; i < s.n; i++ {
			gb.G[i*B+colBase+j] = bs.xvec[i*k+j]
		}
	}
	return nil
}

// greensSpan is the fused superposition GEMV over global cells [lo, hi):
// out[i-lo] = Ambient + Σ_b G[i·B+b]·p[b]. Each output cell is an
// independent dot product with a fixed accumulation order — four partial
// accumulators over exact-length windows, combined in a fixed tree, then
// a sequential tail — so the result is bitwise-identical at any Workers
// setting and any chunk schedule. The parallel-threshold decision prices
// the actual work ((hi-lo)·B multiply-adds, scaled to stencil-cell
// units) so small queries stay inline.
func (s *Solver) greensSpan(gb *GreensBasis, p []float64, lo, hi int, out []float64) {
	B := gb.B
	amb := gb.Ambient
	pp := p[:B:B]
	cells := hi - lo
	// One stencil cell is ~10 flops; one GEMV cell is 2·B. Convert so
	// runSpan's cell-count threshold prices comparable arithmetic.
	work := cells * (B/5 + 1)
	s.runSpan(cells, chunkCells, work, func(clo, chi int) {
		for i := clo; i < chi; i++ {
			base := (lo + i) * B
			row := gb.G[base : base+B : base+B]
			var a0, a1, a2, a3 float64
			j := 0
			for ; j+4 <= B; j += 4 {
				a0 += row[j] * pp[j]
				a1 += row[j+1] * pp[j+1]
				a2 += row[j+2] * pp[j+2]
				a3 += row[j+3] * pp[j+3]
			}
			acc := (a0 + a1) + (a2 + a3)
			for ; j < B; j++ {
				acc += row[j] * pp[j]
			}
			out[i] = amb + acc
		}
	})
}

// GreensApply reconstructs the full flat temperature vector (layer-major,
// length NumCells) for the block-power coefficients p.
func (s *Solver) GreensApply(gb *GreensBasis, p []float64, x []float64) error {
	if err := s.greensCompat(gb); err != nil {
		return err
	}
	if len(p) != gb.B {
		return fmt.Errorf("thermal: %d power coefficients for %d basis columns", len(p), gb.B)
	}
	if len(x) != s.n {
		return fmt.Errorf("thermal: greens output has %d cells, want %d", len(x), s.n)
	}
	s.greensSpan(gb, p, 0, s.n, x)
	return nil
}

// GreensApplyLayer reconstructs a single layer's temperatures into out
// (length Grid.NumCells()) — the per-iteration workhorse of the reduced
// leakage fixed point, which only needs the power-injection layer to
// evaluate its block-temperature functionals.
func (s *Solver) GreensApplyLayer(gb *GreensBasis, p []float64, li int, out []float64) error {
	if err := s.greensCompat(gb); err != nil {
		return err
	}
	if len(p) != gb.B {
		return fmt.Errorf("thermal: %d power coefficients for %d basis columns", len(p), gb.B)
	}
	if li < 0 || li >= gb.Layers {
		return fmt.Errorf("thermal: greens layer %d of %d", li, gb.Layers)
	}
	if len(out) != s.nPerLayer {
		return fmt.Errorf("thermal: greens layer output has %d cells, want %d", len(out), s.nPerLayer)
	}
	s.greensSpan(gb, p, li*s.nPerLayer, (li+1)*s.nPerLayer, out)
	return nil
}

// GreensField reconstructs the full Temperature field for the block-power
// coefficients p — the reduced-model equivalent of SteadyState.
func (s *Solver) GreensField(gb *GreensBasis, p []float64) (Temperature, error) {
	x := make([]float64, s.n)
	if err := s.GreensApply(gb, p, x); err != nil {
		return nil, err
	}
	return s.fieldFromVector(x), nil
}

// GreensLayers reconstructs only the listed layers for the block-power
// coefficients p: a sparse field whose listed layers hold the same
// cells, bit for bit, as GreensField's (each is GreensApplyLayer's span
// of the same GEMV) and whose other layers are nil. Max, MeanOver and
// MaxOver index only the layer they are asked about, so a caller that
// reads just the listed layers pays for len(layers) of the stack's
// layers instead of all of them. A duplicate layer is recomputed to the
// same bits; a nil list means every layer and returns GreensField's
// full field.
func (s *Solver) GreensLayers(gb *GreensBasis, p []float64, layers []int) (Temperature, error) {
	if layers == nil {
		return s.GreensField(gb, p)
	}
	out := make(Temperature, len(s.m.Layers))
	for _, li := range layers {
		layer := make([]float64, s.nPerLayer)
		if err := s.GreensApplyLayer(gb, p, li, layer); err != nil {
			return nil, err
		}
		out[li] = layer
	}
	return out, nil
}

// EncodeGreensBasis appends the basis to e in raw IEEE-754 bits, so a
// persisted basis reproduces queries bit for bit after a reload.
func EncodeGreensBasis(e *ckpt.Enc, gb *GreensBasis) {
	e.U32(uint32(gb.Rows))
	e.U32(uint32(gb.Cols))
	e.U32(uint32(gb.Layers))
	e.U32(uint32(gb.B))
	e.F64(gb.Ambient)
	for _, n := range gb.Names {
		e.Str(n)
	}
	e.F64s(gb.G)
}

// DecodeGreensBasis reads EncodeGreensBasis's layout back, validating
// internal consistency (column count, coefficient count) before any of
// it is used. Whether the basis matches the *current* stack spec is the
// caller's check — the content key lives with the persistence layer.
func DecodeGreensBasis(d *ckpt.Dec) (*GreensBasis, error) {
	gb := &GreensBasis{
		Rows:   int(d.U32()),
		Cols:   int(d.U32()),
		Layers: int(d.U32()),
		B:      int(d.U32()),
	}
	gb.Ambient = d.F64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if gb.Rows < 1 || gb.Cols < 1 || gb.Layers < 1 || gb.B < 1 {
		return nil, fmt.Errorf("thermal: greens basis shaped %dx%dx%d with %d columns", gb.Rows, gb.Cols, gb.Layers, gb.B)
	}
	gb.Names = make([]string, gb.B)
	for i := range gb.Names {
		gb.Names[i] = d.Str()
	}
	gb.G = d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(gb.G) != gb.Cells()*gb.B {
		return nil, fmt.Errorf("thermal: greens basis has %d coefficients, want %d", len(gb.G), gb.Cells()*gb.B)
	}
	return gb, nil
}
