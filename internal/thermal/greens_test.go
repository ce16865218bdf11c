package thermal

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/geom"
)

// greensTestSources lays nBlocks unit sources on layer li of m's grid in
// a row-major tiling, each covering one grid-cell-sized rect (offset so
// blocks straddle cell boundaries and exercise OverlapFractions).
func greensTestSources(m *Model, li, nBlocks int) []UnitSource {
	g := m.Grid
	cw, ch := g.CellW(), g.CellH()
	srcs := make([]UnitSource, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		row := (i * 3) % (g.Rows - 1)
		col := (i * 5) % (g.Cols - 1)
		r := geom.NewRect(float64(col)*cw+cw/3, float64(row)*ch+ch/3, cw, ch)
		srcs = append(srcs, UnitSource{Name: fmt.Sprintf("blk%d", i), Layer: li, Rect: r})
	}
	return srcs
}

// The reduced model must reproduce the full solve: T(P) = T_amb + G·p is
// exact up to solver tolerance for any power map assembled from the
// basis source rectangles.
func TestGreensBasisMatchesSteadyState(t *testing.T) {
	m := slabModel(16, 16, 5, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	srcs := greensTestSources(m, 0, 6)
	// A background source on an interior layer, like the DRAM-die terms.
	srcs = append(srcs, UnitSource{Name: "bg", Layer: 2, Rect: geom.NewRect(0, 0, m.Grid.Width, m.Grid.Height)})

	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}

	p := []float64{4.5, 0, 2.25, 1.0, 0.75, 3.0, 1.5}
	pm := m.NewPowerMap()
	for i, src := range srcs {
		pm.AddBlock(m.Grid, src.Layer, src.Rect, p[i])
	}
	want, err := s.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.GreensField(gb, p)
	if err != nil {
		t.Fatal(err)
	}
	for li := range want {
		for c := range want[li] {
			if d := math.Abs(got[li][c] - want[li][c]); d > 1e-5 {
				t.Fatalf("layer %d cell %d: reduced %.9f vs full %.9f (|Δ| %.3g)", li, c, got[li][c], want[li][c], d)
			}
		}
	}

	// Zero power must reproduce the uniform ambient field exactly — the
	// identity the superposition rests on.
	zero, err := s.GreensField(gb, make([]float64, len(srcs)))
	if err != nil {
		t.Fatal(err)
	}
	for li := range zero {
		for c := range zero[li] {
			if zero[li][c] != m.Ambient {
				t.Fatalf("zero power: layer %d cell %d = %v, want exactly ambient %v", li, c, zero[li][c], m.Ambient)
			}
		}
	}
}

// GreensApplyLayer must agree bitwise with the matching span of the
// full-field reconstruction — it is the same GEMV over a sub-range.
func TestGreensApplyLayerMatchesFull(t *testing.T) {
	m := slabModel(12, 12, 4, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	srcs := greensTestSources(m, 0, 5)
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{1, 2, 3, 4, 5}
	full, err := s.GreensField(gb, p)
	if err != nil {
		t.Fatal(err)
	}
	layer := make([]float64, m.Grid.NumCells())
	for li := range m.Layers {
		if err := s.GreensApplyLayer(gb, p, li, layer); err != nil {
			t.Fatal(err)
		}
		for c, v := range layer {
			if v != full[li][c] {
				t.Fatalf("layer %d cell %d: GreensApplyLayer %v != GreensField %v", li, c, v, full[li][c])
			}
		}
	}
}

// GreensLayers must return exactly the listed layers of GreensApply's
// field, bit for bit, at any Workers setting. Layers here hold more than
// one GEMV chunk of cells and enough work per layer that the chunked
// parallel path engages at Workers 4.
func TestGreensLayersMatchesApply(t *testing.T) {
	m := slabModel(96, 96, 3, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	srcs := greensTestSources(m, 0, 24)
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(srcs))
	for i := range p {
		p[i] = 0.5 + 0.2*float64(i%5)
	}
	full := make([]float64, s.n)
	if err := s.GreensApply(gb, p, full); err != nil {
		t.Fatal(err)
	}
	nl := m.Grid.NumCells()
	for _, workers := range []int{1, 4} {
		ps := s.Clone()
		ps.Workers = workers
		// Layer 2 twice: a duplicate is recomputed to the same bits.
		got, err := ps.GreensLayers(gb, p, []int{2, 0, 2})
		ps.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(m.Layers) || got[1] != nil {
			t.Fatalf("workers=%d: want a %d-layer field with layer 1 absent, got %d layers", workers, len(m.Layers), len(got))
		}
		for _, li := range []int{0, 2} {
			for c, v := range got[li] {
				if want := full[li*nl+c]; math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("workers=%d layer %d cell %d: %x != GreensApply %x", workers, li, c, math.Float64bits(v), math.Float64bits(want))
				}
			}
		}
	}
	for _, bad := range [][]int{{-1}, {0, len(m.Layers)}} {
		if _, err := s.GreensLayers(gb, p, bad); err == nil {
			t.Fatalf("layers %v accepted", bad)
		}
	}
}

// The fused GEMV must be bitwise-deterministic at any Workers setting:
// the model here is sized past the parallel threshold so the chunked
// path actually engages.
func TestGreensApplyDeterministicAcrossWorkers(t *testing.T) {
	m := slabModel(48, 48, 8, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	srcs := greensTestSources(m, 0, 24)
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(srcs))
	for i := range p {
		p[i] = 0.25 + 0.3*float64(i%7)
	}
	serial := make([]float64, s.n)
	if err := s.GreensApply(gb, p, serial); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		ps := s.Clone()
		ps.Workers = workers
		got := make([]float64, ps.n)
		if err := ps.GreensApply(gb, p, got); err != nil {
			t.Fatal(err)
		}
		ps.Close()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
				t.Fatalf("workers=%d cell %d: %x != serial %x", workers, i, math.Float64bits(got[i]), math.Float64bits(serial[i]))
			}
		}
	}
}

// A persisted basis must reproduce queries bit for bit: the codec stores
// raw IEEE-754 bits and round-trips every field exactly.
func TestGreensBasisCodecRoundTrip(t *testing.T) {
	m := slabModel(10, 10, 3, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	srcs := greensTestSources(m, 0, 4)
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	var e ckpt.Enc
	EncodeGreensBasis(&e, gb)
	back, err := DecodeGreensBasis(ckpt.NewDec(e.Data()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != gb.Rows || back.Cols != gb.Cols || back.Layers != gb.Layers || back.B != gb.B {
		t.Fatalf("shape changed in round-trip: %+v vs %+v", back, gb)
	}
	if math.Float64bits(back.Ambient) != math.Float64bits(gb.Ambient) {
		t.Fatalf("ambient changed: %v vs %v", back.Ambient, gb.Ambient)
	}
	for i, n := range gb.Names {
		if back.Names[i] != n {
			t.Fatalf("name %d changed: %q vs %q", i, back.Names[i], n)
		}
	}
	for i := range gb.G {
		if math.Float64bits(back.G[i]) != math.Float64bits(gb.G[i]) {
			t.Fatalf("coefficient %d changed bits: %x vs %x", i, math.Float64bits(back.G[i]), math.Float64bits(gb.G[i]))
		}
	}

	// Truncated payloads must fail loudly, not decode garbage.
	if _, err := DecodeGreensBasis(ckpt.NewDec(e.Data()[:len(e.Data())/2])); err == nil {
		t.Fatal("truncated basis decoded without error")
	}
}

// Wide-batch deflation regression (basis construction runs batches wider
// than the deflation path was ever exercised at): near-duplicate
// unit-power columns retire at nearly identical iterates, so most of a
// chunk deflates — every column must still come back tolerance-accurate
// against its own sequential unit solve.
func TestGreensBasisWideBatchDeflation(t *testing.T) {
	m := slabModel(12, 12, 4, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	g := m.Grid
	cw, ch := g.CellW(), g.CellH()
	// More columns than one build chunk, nearly all of them tiny lateral
	// perturbations of the same rect — the near-duplicate regime.
	var srcs []UnitSource
	base := geom.NewRect(4*cw, 4*ch, 2*cw, 2*ch)
	for i := 0; i < greensBuildWidth+4; i++ {
		r := geom.NewRect(base.Min.X+float64(i%3)*cw/64, base.Min.Y+float64(i/3%3)*ch/64, base.W(), base.H())
		srcs = append(srcs, UnitSource{Name: fmt.Sprintf("dup%d", i), Layer: 0, Rect: r})
	}
	gb, err := s.BuildGreensBasis(context.Background(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	// Column-by-column: the reduced field for e_b must match the full
	// solve of a 1 W block at that rect.
	sq := s.Clone()
	defer sq.Close()
	p := make([]float64, len(srcs))
	for b, src := range srcs {
		pm := m.NewPowerMap()
		pm.AddBlock(g, src.Layer, src.Rect, 1)
		want, err := sq.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p {
			p[i] = 0
		}
		p[b] = 1
		got, err := s.GreensField(gb, p)
		if err != nil {
			t.Fatal(err)
		}
		for li := range want {
			for c := range want[li] {
				if d := math.Abs(got[li][c] - want[li][c]); d > 1e-5 {
					t.Fatalf("column %d layer %d cell %d: basis %.9f vs solve %.9f (|Δ| %.3g)", b, li, c, got[li][c], want[li][c], d)
				}
			}
		}
	}
}

// Deflation accounting must cover only columns that entered the lockstep
// recurrence: a hook-rejected column never held a slot and skipped no
// kernel work, so it must not inflate Deflated.
func TestBatchDeflationCountsOnlyEnteredColumns(t *testing.T) {
	m := slabModel(12, 12, 4, 100e-6, 120, 25000)
	s, err := NewSolver(m)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultPrecond = PrecondMG
	// Column 1's hook rejects it before entry; columns 0 and 2 carry very
	// different power patterns so they converge at different iterates and
	// exactly one of them deflates.
	calls := 0
	s.Hook = func() (int, error) {
		calls++
		if calls == 2 {
			return 0, fmt.Errorf("injected hook failure")
		}
		return 0, nil
	}
	pms := make([]PowerMap, 3)
	for j := range pms {
		pms[j] = m.NewPowerMap()
	}
	pms[0][0][m.Grid.Index(2, 2)] = 8
	pms[1][0][m.Grid.Index(5, 5)] = 1
	pms[2][1][m.Grid.Index(9, 3)] = 0.01
	pms[2][2][m.Grid.Index(1, 10)] = 6

	res, err := s.SteadyStateBatch(context.Background(), pms, BatchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errs[1] == nil {
		t.Fatal("hook-rejected column reported no error")
	}
	if res.Errs[0] != nil || res.Errs[2] != nil {
		t.Fatalf("entered columns failed: %v, %v", res.Errs[0], res.Errs[2])
	}
	if res.Iters[1] != 0 {
		t.Fatalf("hook-rejected column reported %d iters", res.Iters[1])
	}
	wantDeflated := 0
	if res.Iters[0] != res.Iters[2] {
		wantDeflated = 1
	}
	if res.Deflated != wantDeflated {
		t.Fatalf("Deflated = %d, want %d (iters %v; the hook-rejected column must not count)",
			res.Deflated, wantDeflated, res.Iters)
	}
}
