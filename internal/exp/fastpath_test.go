package exp

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// fastPathOpts is the reduced configuration the fast-path sweep tests
// share (two apps keep the basis amortisation visible without making
// the test slow).
func fastPathOpts() Options {
	o := QuickOptions()
	o.Apps = []string{"lu-nas", "fft"}
	o.Workers = 1
	return o
}

// A sweep served by the reduced model must render the same tables as
// the full-solve sweep: exactly byte-identical under the oracle gate
// (which returns the CG outcomes), and byte-identical at print
// precision under plain "on" (solver-tolerance differences are orders
// of magnitude below the 0.1 °C table resolution).
func TestFastPathSweepTables(t *testing.T) {
	run := func(mode string) (string, perf.Stats) {
		o := fastPathOpts()
		o.FastPath = mode
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		_, tab, err := r.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		return tab.String(), r.Sys.Ev.Stats()
	}

	full, fullStats := run("off")
	if fullStats.GreensHits != 0 || fullStats.BasisBuilds != 0 {
		t.Fatalf("off mode touched the fast path: %+v", fullStats)
	}

	fast, fastStats := run("on")
	if fast != full {
		t.Fatalf("fast-path tables differ from full tables:\n%s\nvs\n%s", fast, full)
	}
	if fastStats.Solves != 0 || fastStats.GreensMisses != 0 {
		t.Fatalf("fast-path sweep ran %d CG solves, %d misses", fastStats.Solves, fastStats.GreensMisses)
	}
	if fastStats.GreensHits == 0 || fastStats.BasisBuilds == 0 {
		t.Fatalf("fast-path sweep recorded no fast-path work: %+v", fastStats)
	}

	oracle, oracleStats := run("oracle")
	if oracle != full {
		t.Fatalf("oracle tables differ from full tables:\n%s\nvs\n%s", oracle, full)
	}
	if oracleStats.GreensHits == 0 || oracleStats.Solves == 0 {
		t.Fatalf("oracle sweep must run both paths: %+v", oracleStats)
	}
}

// Persisted bases: a checkpointed fast-path run writes one basis file
// per scheme, a rerun loads them instead of rebuilding, and a stale
// file — a different stack content, or the old XYGB1 layout, under the
// same path — is rejected with ErrCkptMismatch by the loader and
// transparently rebuilt by the runner.
func TestFastPathBasisPersistence(t *testing.T) {
	dir := t.TempDir()
	o := fastPathOpts()
	o.FastPath = "on"
	o.Checkpoint = &CkptConfig{Dir: dir}

	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sys.Ev.Stats().BasisBuilds; got != len(stack.AllSchemes) {
		t.Fatalf("first run built %d bases, want %d", got, len(stack.AllSchemes))
	}
	st := r.Sys.Stack(stack.Bank)
	path := BasisFile(dir, stack.Bank, st.Model.Grid.Rows, st.Model.Grid.Cols)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no persisted basis: %v", err)
	}

	// Rerun: every basis loads, nothing rebuilds, queries serve reduced.
	r2, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Sys.Ev.Stats().BasisBuilds; got != 0 {
		t.Fatalf("resumed run rebuilt %d bases", got)
	}
	_, tab2, err := r2.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	st2 := r2.Sys.Ev.Stats()
	if st2.GreensHits == 0 || st2.Solves != 0 {
		t.Fatalf("resumed run did not serve from loaded bases: %+v", st2)
	}

	// The loaded basis must reproduce the built one bit for bit.
	key := perf.BasisKey(st)
	gb, err := LoadGreensBasis(path, key)
	if err != nil {
		t.Fatal(err)
	}
	built, err := r.Sys.Ev.GreensBasisFor(t.Context(), st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range built.G {
		if math.Float64bits(gb.G[i]) != math.Float64bits(built.G[i]) {
			t.Fatalf("persisted coefficient %d changed bits", i)
		}
	}

	// Stale content under the right key check: loading with a different
	// key must fail with ErrCkptMismatch, never silently serve.
	if _, err := LoadGreensBasis(path, "some-other-stack-content"); !errors.Is(err, ErrCkptMismatch) {
		t.Fatalf("stale basis load returned %v, want ErrCkptMismatch", err)
	}
	// A grid change moves every persisted basis aside: both the file name
	// and the content key change, so nothing stale can be picked up (the
	// key sensitivity itself is pinned in perf.TestBasisKeyInvalidation).
	if BasisFile(dir, stack.Bank, 24, 24) == path {
		t.Fatal("grid change did not change the basis file name")
	}

	// A corrupted/foreign file under a basis path is rebuilt and
	// overwritten, not trusted: plant a file with a mismatching embedded
	// key and rerun.
	if err := SaveGreensBasis(path, "wrong-key", gb); err != nil {
		t.Fatal(err)
	}
	r4, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r4.Sys.Ev.Stats().BasisBuilds; got < 1 {
		t.Fatal("stale persisted basis was not rebuilt")
	}
	if _, err := LoadGreensBasis(path, key); err != nil {
		t.Fatalf("rebuilt basis file unreadable: %v", err)
	}

	// A file of the old cell-major layout (magic XYGB1, G[i*B + b]) must
	// never be misread as column-major: the loader rejects it with
	// ErrCkptMismatch, the runner rebuilds that one basis and rewrites
	// the file as XYGB2, and the sweep served from it renders the same
	// table.
	old := *built
	n := built.Cells()
	old.G = make([]float64, len(built.G))
	for b := 0; b < built.B; b++ {
		for i := 0; i < n; i++ {
			old.G[i*built.B+b] = built.G[b*n+i]
		}
	}
	var e ckpt.Enc
	e.Str("XYGB1")
	e.Str(key)
	thermal.EncodeGreensBasis(&e, &old)
	if err := ckpt.WriteFileAtomicBytes(path, e.Data()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGreensBasis(path, key); !errors.Is(err, ErrCkptMismatch) {
		t.Fatalf("XYGB1 basis load returned %v, want ErrCkptMismatch", err)
	}
	r5, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := r5.Sys.Ev.Stats().BasisBuilds; got != 1 {
		t.Fatalf("rerun over an XYGB1 file built %d bases, want 1", got)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if magic := ckpt.NewDec(raw).Str(); magic != "XYGB2" {
		t.Fatalf("rebuilt basis file has magic %q, want XYGB2", magic)
	}
	gb5, err := LoadGreensBasis(path, key)
	if err != nil {
		t.Fatalf("rewritten basis file unreadable: %v", err)
	}
	for i := range built.G {
		if math.Float64bits(gb5.G[i]) != math.Float64bits(built.G[i]) {
			t.Fatalf("rewritten coefficient %d differs from the first build", i)
		}
	}
	_, tab5, err := r5.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if tab5.String() != tab2.String() {
		t.Fatalf("table after the XYGB1 rebuild differs:\n%s\nvs\n%s", tab5, tab2)
	}

	// Garbage on disk must error, not decode.
	bad := filepath.Join(dir, "junk.xygb")
	if err := os.WriteFile(bad, []byte("not a basis"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGreensBasis(bad, key); err == nil {
		t.Fatal("garbage basis file loaded without error")
	}
}
