package mir_test

import (
	"bytes"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/pipeline"
)

// The printed form of a built program is lossless: parsing it back gives a
// program with the same canonical encoding, MSUB accumulators included (the
// Default pipeline's remainders lower to MSUB).
func TestPrintedProgramRoundTrips(t *testing.T) {
	p := appgen.UberRider
	mods := appgen.Generate(p, appgen.ScaleForModules(p, 12))
	for _, c := range []struct {
		name     string
		cfg      pipeline.Config
		wantMSUB bool
	}{{"OSize", pipeline.OSize, false}, {"Default", pipeline.Default, true}} {
		t.Run(c.name, func(t *testing.T) {
			res, err := appgen.BuildGenerated(mods, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.wantMSUB && !hasOp(res.Prog, isa.MSUB) {
				t.Fatal("no MSUB in the program: the round trip does not cover its accumulator")
			}
			back, err := mir.Parse(res.Prog.String())
			if err != nil {
				t.Fatal(err)
			}
			want := mir.EncodeProgram(nil, res.Prog)
			if got := mir.EncodeProgram(nil, back); !bytes.Equal(got, want) {
				t.Fatalf("parse(print(prog)) encodes to %d bytes that differ from the program's %d", len(got), len(want))
			}
		})
	}
}

func hasOp(p *mir.Program, op isa.Op) bool {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if in.Op == op {
					return true
				}
			}
		}
	}
	return false
}
