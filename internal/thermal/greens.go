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
// A GreensBasis stores the B response fields column-major — G[b*n + i]
// is source b's response at global cell i, n = Cells() — so each unit
// response is contiguous and serving a query is one GEMV that streams
// only the columns whose power coefficient is non-zero: O(cells × K) for
// K powered sources, instead of a full MG-preconditioned CG solve. The
// GEMV runs on the fixed-chunk machinery of parallel.go with a fixed
// per-cell accumulation order (four lane accumulators combined in a
// fixed tree, then a sequential tail), so results are bitwise-identical
// at any Workers setting — the same determinism contract every solver
// kernel carries. Skipping a zero coefficient is exact: a lane
// accumulator starts at +0 and a sum of IEEE values reaches −0 only from
// two −0 operands, so it never holds −0, and adding the ±0 product of a
// finite coefficient and a zero power leaves it unchanged bit for bit.
// (The loaders reject non-finite coefficients, which would turn 0 into
// NaN.)
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
	"math"

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
	// G holds the response fields column-major: G[b*Cells() + i] is
	// column b's temperature response (°C per watt) at global cell i, so
	// each column is one contiguous field. Every coefficient is finite.
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
// and copies each solution into its column of gb's column-major store,
// starting at column colBase. Right-hand sides carry no ambient term and
// iterates cold-start at zero (the response-field formulation above), so
// it assembles the batch directly instead of going through
// SteadyStateBatch.
func (s *Solver) solveUnitChunk(ctx context.Context, sources []UnitSource, gb *GreensBasis, colBase int) error {
	k := len(sources)
	if k == 1 {
		// One column: the plain CG path, like SteadyStateBatch's k==1
		// short-circuit, iterating in place in the basis column (still
		// zero, the cold start).
		b := make([]float64, s.n)
		if err := s.unitRHS(sources[0], b); err != nil {
			return err
		}
		if _, err := s.cg(ctx, b, gb.column(colBase), 0, SolveOpts{}); err != nil {
			return fmt.Errorf("thermal: greens column %q: %w", sources[0].Name, err)
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
		col := gb.column(colBase + j)
		for i := range col {
			col[i] = bs.xvec[i*k+j]
		}
	}
	return nil
}

// column returns basis column b, one contiguous field of Cells() cells.
func (gb *GreensBasis) column(b int) []float64 {
	n := gb.Cells()
	return gb.G[b*n : (b+1)*n : (b+1)*n]
}

// greensTile is the cell width of one GEMV tile: the four lane
// accumulators of a tile (4 × 512 × 8 B = 16 KiB) stay in L1 while the
// tile's slice of every powered column streams through them once.
const greensTile = 512

// greensTerms is one query's non-zero power coefficients grouped by the
// accumulator they feed in the per-cell dot product
// Σ_b G_b[i]·p[b]: lane l < 4 takes the columns j < B&^3 with
// j mod 4 == l, lane 4 (the tail) the columns j ≥ B&^3, each lane in
// increasing j. Lane l spans col[off[l]:off[l+1]], coef[k] = p[col[k]].
type greensTerms struct {
	col  []int
	coef []float64
	off  [6]int
}

// newGreensTerms drops p's zero coefficients (+0 and −0) and groups the
// rest by lane.
func newGreensTerms(p []float64) greensTerms {
	B := len(p)
	B4 := B &^ 3
	t := greensTerms{col: make([]int, 0, B), coef: make([]float64, 0, B)}
	add := func(j int) {
		if p[j] != 0 {
			t.col = append(t.col, j)
			t.coef = append(t.coef, p[j])
		}
	}
	for l := 0; l < 4; l++ {
		t.off[l] = len(t.col)
		for j := l; j < B4; j += 4 {
			add(j)
		}
	}
	t.off[4] = len(t.col)
	for j := B4; j < B; j++ {
		add(j)
	}
	t.off[5] = len(t.col)
	return t
}

// greensGEMV is the superposition GEMV over global cells [lo, hi):
// out[i-lo] = Ambient + Σ_b G_b[i]·p[b], reading only the columns whose
// coefficient is non-zero. Per cell the arithmetic is a fixed sequence:
// four lane accumulators, each summing its columns' products in
// increasing column order from +0, combined as (a0+a1)+(a2+a3), then the
// tail products added in order, then the ambient. Cells are walked in
// greensTile tiles with the accumulators kept per tile, so each column
// is read once per tile as a contiguous run. The result is
// bitwise-identical at any Workers setting and any chunk schedule, and,
// because zero terms are exact no-ops (see the file comment), to the
// same sequence with every zero term included. The parallel-threshold
// decision prices the actual work ((hi-lo)·K multiply-adds for K powered
// columns, scaled to stencil-cell units) so small queries stay inline.
func (s *Solver) greensGEMV(gb *GreensBasis, p []float64, lo, hi int, out []float64) {
	t := newGreensTerms(p[:gb.B])
	n := gb.Cells()
	amb := gb.Ambient
	cells := hi - lo
	// One stencil cell is ~10 flops; one GEMV cell is 2·K. Convert so
	// runSpan's cell-count threshold prices comparable arithmetic.
	work := cells * (len(t.col)/5 + 1)
	s.runSpan(cells, chunkCells, work, func(clo, chi int) {
		var acc [4][greensTile]float64
		for t0 := clo; t0 < chi; t0 += greensTile {
			w := min(greensTile, chi-t0)
			base := lo + t0
			// col returns the tile's cells of the k-th powered column.
			col := func(k int) []float64 {
				o := t.col[k]*n + base
				return gb.G[o : o+w : o+w]
			}
			for l := 0; l < 4; l++ {
				a := acc[l][:w]
				clear(a)
				k, end := t.off[l], t.off[l+1]
				for ; k+4 <= end; k += 4 {
					g0, g1, g2, g3 := col(k)[:len(a)], col(k + 1)[:len(a)], col(k + 2)[:len(a)], col(k + 3)[:len(a)]
					c0, c1, c2, c3 := t.coef[k], t.coef[k+1], t.coef[k+2], t.coef[k+3]
					for i := range a {
						a[i] = (((a[i] + g0[i]*c0) + g1[i]*c1) + g2[i]*c2) + g3[i]*c3
					}
				}
				for ; k < end; k++ {
					g, c := col(k)[:len(a)], t.coef[k]
					for i := range a {
						a[i] += g[i] * c
					}
				}
			}
			a0 := acc[0][:w]
			a1, a2, a3 := acc[1][:len(a0)], acc[2][:len(a0)], acc[3][:len(a0)]
			for i := range a0 {
				a0[i] = (a0[i] + a1[i]) + (a2[i] + a3[i])
			}
			for k := t.off[4]; k < t.off[5]; k++ {
				g, c := col(k)[:len(a0)], t.coef[k]
				for i := range a0 {
					a0[i] += g[i] * c
				}
			}
			o := out[t0 : t0+len(a0)]
			for i := range o {
				o[i] = amb + a0[i]
			}
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
	s.greensGEMV(gb, p, 0, s.n, x)
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
	s.greensGEMV(gb, p, li*s.nPerLayer, (li+1)*s.nPerLayer, out)
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

// DecodeGreensBasis reads EncodeGreensBasis's layout back and validates
// it (Validate) before any of it is used. The header's shape is checked
// against the bytes left before anything is allocated from it, so a
// corrupt or hostile header costs at most a small multiple of the input
// size. Whether the basis matches the *current* stack spec is the
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
	// Each name carries a 4-byte length and each coefficient 8 bytes;
	// the running product stays below the byte count, so it cannot
	// overflow.
	rem := d.Remaining()
	tooBig := gb.B > rem/4
	if !tooBig {
		avail, need := (rem-4*gb.B)/8, 1
		for _, dim := range []int{gb.Rows, gb.Cols, gb.Layers, gb.B} {
			if dim > avail/need {
				tooBig = true
				break
			}
			need *= dim
		}
	}
	if tooBig {
		return nil, fmt.Errorf("thermal: greens basis shaped %dx%dx%d with %d columns does not fit the %d bytes left",
			gb.Rows, gb.Cols, gb.Layers, gb.B, rem)
	}
	gb.Names = make([]string, gb.B)
	for i := range gb.Names {
		gb.Names[i] = d.Str()
	}
	gb.G = d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := gb.Validate(); err != nil {
		return nil, err
	}
	return gb, nil
}

// Validate checks that the basis is internally consistent — a positive
// shape, one name per column, Cells()·B coefficients — and that the
// ambient and every coefficient are finite, the condition under which
// the GEMV's skipping of zero-power columns is exact. Every basis that
// arrives from outside the process must pass it before it serves.
func (gb *GreensBasis) Validate() error {
	if gb.Rows < 1 || gb.Cols < 1 || gb.Layers < 1 || gb.B < 1 {
		return fmt.Errorf("thermal: greens basis shaped %dx%dx%d with %d columns", gb.Rows, gb.Cols, gb.Layers, gb.B)
	}
	if len(gb.Names) != gb.B {
		return fmt.Errorf("thermal: greens basis has %d names for %d columns", len(gb.Names), gb.B)
	}
	if len(gb.G) != gb.Cells()*gb.B {
		return fmt.Errorf("thermal: greens basis has %d coefficients, want %d", len(gb.G), gb.Cells()*gb.B)
	}
	if math.IsNaN(gb.Ambient) || math.IsInf(gb.Ambient, 0) {
		return fmt.Errorf("thermal: greens basis ambient %v is not finite", gb.Ambient)
	}
	for i, v := range gb.G {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("thermal: greens basis coefficient %d (column %d) is %v", i, i/gb.Cells(), v)
		}
	}
	return nil
}
