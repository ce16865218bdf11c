package exp

// Green's-basis persistence for the fast path. A paper-scale basis is a
// few hundred wide solves per scheme — exactly the kind of precompute a
// resumed run should not repeat — so when a checkpoint directory is
// configured, NewRunner loads each scheme's basis from it (guarded by
// the BasisKey content hash) and builds-and-saves whatever is missing or
// stale. The store is bit-exact: EncodeGreensBasis writes raw IEEE-754
// bits, so a loaded basis serves queries bit-identically to the build
// that produced it.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/xylem-sim/xylem/internal/ckpt"
	"github.com/xylem-sim/xylem/internal/perf"
	"github.com/xylem-sim/xylem/internal/stack"
	"github.com/xylem-sim/xylem/internal/thermal"
)

// greensBasisMagic heads every persisted basis file. The digit is the
// layout version: XYGB1 files stored G cell-major, XYGB2 column-major,
// so a file of the old layout fails the magic check (ErrCkptMismatch)
// and is rebuilt instead of being misread.
const greensBasisMagic = "XYGB2"

// fastPathMode normalises Options.FastPath to its canonical spelling
// ("" and "off" are the same mode and must sign identically).
func (o Options) fastPathMode() string {
	fp, err := perf.ParseFastPath(o.FastPath)
	if err != nil {
		// NewRunner rejects unknown modes before any signature is taken;
		// fall back to the raw spelling for safety.
		return o.FastPath
	}
	return fp.String()
}

// fastPathEnabled reports whether thermal queries may be served reduced.
func (o Options) fastPathEnabled() bool {
	fp, err := perf.ParseFastPath(o.FastPath)
	return err == nil && fp != perf.FastPathOff
}

// BasisFile names the persisted basis of one scheme at one grid size
// inside a checkpoint directory.
func BasisFile(dir string, kind stack.SchemeKind, rows, cols int) string {
	return filepath.Join(dir, fmt.Sprintf("greens-%s-%dx%d.xygb", kind, rows, cols))
}

// SaveGreensBasis persists a basis with its content key, atomically.
func SaveGreensBasis(path, key string, gb *thermal.GreensBasis) error {
	var e ckpt.Enc
	e.Str(greensBasisMagic)
	e.Str(key)
	thermal.EncodeGreensBasis(&e, gb)
	return ckpt.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(e.Data())
		return err
	})
}

// LoadGreensBasis reads a persisted basis back, rejecting with
// ErrCkptMismatch any file whose embedded content key differs from key —
// a basis built for a different stack spec, scheme parameterisation or
// grid must never be silently reused.
func LoadGreensBasis(path, key string) (*thermal.GreensBasis, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := ckpt.NewDec(raw)
	if magic := d.Str(); magic != greensBasisMagic {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("exp: basis file %s: %w", path, err)
		}
		return nil, fmt.Errorf("%w: %s is not a basis file (magic %q)", ErrCkptMismatch, path, magic)
	}
	if got := d.Str(); got != key {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("exp: basis file %s: %w", path, err)
		}
		return nil, fmt.Errorf("%w: basis in %s was built for a different stack content", ErrCkptMismatch, path)
	}
	gb, err := thermal.DecodeGreensBasis(d)
	if err != nil {
		return nil, fmt.Errorf("exp: basis file %s: %w", path, err)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("exp: basis file %s: %w", path, err)
	}
	return gb, nil
}

// prepareFastPath primes the evaluator's basis cache when the fast path
// is on and a checkpoint directory is configured: per scheme, install
// the persisted basis if its content key matches, otherwise build it now
// and persist it so the next incarnation of this run skips the
// precompute. Without a checkpoint directory the bases build lazily
// (singleflight) on first query instead. A stale persisted basis is
// simply rebuilt and overwritten — loading it for use is what
// ErrCkptMismatch forbids.
func (r *Runner) prepareFastPath() error {
	if !r.Opts.fastPathEnabled() {
		return nil
	}
	cfg := r.Opts.Checkpoint
	if cfg == nil || cfg.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	for _, kind := range stack.AllSchemes {
		st := r.Sys.Stack(kind)
		if st == nil {
			continue
		}
		key := perf.BasisKey(st)
		path := BasisFile(cfg.Dir, kind, st.Model.Grid.Rows, st.Model.Grid.Cols)
		gb, err := LoadGreensBasis(path, key)
		switch {
		case err == nil:
			if err := r.Sys.Ev.InstallBasis(st, gb); err != nil {
				return fmt.Errorf("exp: persisted basis for %s: %w", kind, err)
			}
			continue
		case errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCkptMismatch):
			// Missing or stale: precompute now and persist.
		default:
			return err
		}
		gb, err = r.Sys.Ev.GreensBasisFor(context.Background(), st)
		if err != nil {
			return fmt.Errorf("exp: basis build for %s: %w", kind, err)
		}
		if err := SaveGreensBasis(path, key, gb); err != nil {
			return err
		}
	}
	return nil
}
