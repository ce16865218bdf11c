package thermal

import (
	"bytes"
	"math"
	"testing"

	"github.com/xylem-sim/xylem/internal/ckpt"
)

// FuzzDecodeGreensBasis drives arbitrary bytes through the .xygb payload
// decoder. It must never panic; an accepted basis must pass Validate and
// re-encode to exactly the bytes it was decoded from; and a small one,
// queried with its own leading coefficients as powers (so some columns
// are zero), must give the dense cell-major dot's bits. The seed corpus
// is testdata/fuzz/FuzzDecodeGreensBasis; run
//
//	go test ./internal/thermal -run '^$' -fuzz '^FuzzDecodeGreensBasis$' -fuzztime 10s
func FuzzDecodeGreensBasis(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := ckpt.NewDec(raw)
		gb, err := DecodeGreensBasis(d)
		if err != nil {
			return
		}
		if err := gb.Validate(); err != nil {
			t.Fatalf("decoded basis fails Validate: %v", err)
		}
		var e ckpt.Enc
		EncodeGreensBasis(&e, gb)
		if used := raw[:len(raw)-d.Remaining()]; !bytes.Equal(e.Data(), used) {
			t.Fatalf("re-encoding differs from the %d bytes decoded", len(used))
		}
		if len(gb.G) > 1<<12 {
			return
		}
		p := gb.G[:gb.B]
		want := greensDotCellMajor(gb, p)
		got := make([]float64, gb.Cells())
		// A zero Solver runs every span inline, which is all the kernel
		// needs of it.
		(&Solver{}).greensGEMV(gb, p, 0, len(got), got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("cell %d: %x != cell-major %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
