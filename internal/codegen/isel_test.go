package codegen

import (
	"testing"

	"outliner/internal/isa"
	"outliner/internal/llir"
)

// selectOps lowers f (which must already be free of phis) and returns the
// selected opcodes of each block.
func selectOps(t *testing.T, f *llir.Func) [][]isa.Op {
	t.Helper()
	vbs, err := selectInstructions(cloneFunc(f))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]isa.Op, len(vbs))
	for i, vb := range vbs {
		for _, vi := range vb.insts {
			out[i] = append(out[i], vi.op)
		}
	}
	return out
}

func countOps(blocks [][]isa.Op, op isa.Op) int {
	n := 0
	for _, ops := range blocks {
		for _, o := range ops {
			if o == op {
				n++
			}
		}
	}
	return n
}

// A Const used as both operands of one Bin has no immediate form: it must
// stay in a register.
func TestConstBothOperandsNotFolded(t *testing.T) {
	f := &llir.Func{Name: "twice", NumParams: 1}
	f.NumValues = 1
	c := f.NewValue()
	r := f.NewValue()
	f.Blocks = []*llir.Block{{Label: "entry", Insts: []llir.Inst{
		{Op: llir.Const, Dst: c, Imm: 5},
		{Op: llir.Bin, Dst: r, BinOp: llir.Add, A: c, B: c},
		{Op: llir.Ret, A: r},
	}}}
	ops := selectOps(t, f)
	if countOps(ops, isa.MOVZ) != 1 || countOps(ops, isa.ADDrs) != 1 || countOps(ops, isa.ADDri) != 0 {
		t.Errorf("c+c folded: %v", ops)
	}
	if got := compileAndRun(t, f, 0); got != "10\n" {
		t.Errorf("got %q, want 10", got)
	}
}

// One unfoldable user in another block keeps the Const in a register for
// every user, including the foldable one.
func TestConstUnfoldableUserInOtherBlock(t *testing.T) {
	f := &llir.Func{Name: "split", NumParams: 1}
	f.NumValues = 1
	c := f.NewValue()
	a := f.NewValue()
	m := f.NewValue()
	f.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Const, Dst: c, Imm: 3},
			{Op: llir.Bin, Dst: a, BinOp: llir.Add, A: f.Param(0), B: c}, // foldable
			{Op: llir.Br, Sym: "next"},
		}},
		{Label: "next", Insts: []llir.Inst{
			{Op: llir.Bin, Dst: m, BinOp: llir.Mul, A: a, B: c}, // 3 is no power of two
			{Op: llir.Ret, A: m},
		}},
	}
	ops := selectOps(t, f)
	if countOps(ops, isa.MOVZ) != 1 || countOps(ops, isa.ADDri) != 0 || countOps(ops, isa.ADDrs) != 1 {
		t.Errorf("const folded despite an unfoldable user: %v", ops)
	}
	if got := compileAndRun(t, f, 4); got != "21\n" {
		t.Errorf("got %q, want 21", got)
	}

	// With only foldable users the Const vanishes into both immediates.
	f.Blocks[1].Insts[0].Imm = 0
	f.Blocks[1].Insts[0].BinOp = llir.Sub
	ops = selectOps(t, f)
	if countOps(ops, isa.MOVZ) != 0 || countOps(ops, isa.ADDri) != 1 || countOps(ops, isa.SUBri) != 1 {
		t.Errorf("foldable const not folded: %v", ops)
	}
}

// After SSA destruction one value may have several Const defs. They must not
// fold into one immediate: each path keeps its own constant.
func TestValueWithTwoConstDefs(t *testing.T) {
	f := &llir.Func{Name: "twodefs", NumParams: 1}
	f.NumValues = 1
	zero := f.NewValue()
	cond := f.NewValue()
	v := f.NewValue()
	r := f.NewValue()
	f.Blocks = []*llir.Block{
		{Label: "entry", Insts: []llir.Inst{
			{Op: llir.Const, Dst: zero, Imm: 0},
			{Op: llir.Cmp, Dst: cond, Cond: llir.Gt, A: f.Param(0), B: zero},
			{Op: llir.CondBr, A: cond, Sym: "five", Sym2: "seven"},
		}},
		{Label: "five", Insts: []llir.Inst{
			{Op: llir.Const, Dst: v, Imm: 5},
			{Op: llir.Br, Sym: "join"},
		}},
		{Label: "seven", Insts: []llir.Inst{
			{Op: llir.Const, Dst: v, Imm: 7},
			{Op: llir.Br, Sym: "join"},
		}},
		{Label: "join", Insts: []llir.Inst{
			{Op: llir.Bin, Dst: r, BinOp: llir.Add, A: f.Param(0), B: v},
			{Op: llir.Ret, A: r},
		}},
	}
	if got := compileAndRun(t, cloneFunc(f), 10); got != "15\n" {
		t.Errorf("x>0 path got %q, want 15", got)
	}
	if got := compileAndRun(t, cloneFunc(f), -10); got != "-3\n" {
		t.Errorf("x<=0 path got %q, want -3", got)
	}
}

// crossesCall is strict: an interval that starts or ends at a call does not
// cross it; one that spans it does.
func TestCrossesCall(t *testing.T) {
	calls := []int{3, 8}
	cases := []struct {
		start, end int
		want       bool
	}{
		{0, 2, false},
		{0, 3, false}, // ends at the call
		{3, 6, false}, // starts at the call
		{2, 4, true},
		{0, 10, true},
		{4, 8, false},
		{4, 9, true},
		{8, 8, false},
		{9, 12, false},
	}
	for _, c := range cases {
		if got := crossesCall(calls, c.start, c.end); got != c.want {
			t.Errorf("crossesCall(%v, %d, %d) = %v, want %v", calls, c.start, c.end, got, c.want)
		}
	}
	if crossesCall(nil, 0, 100) {
		t.Error("no calls, yet crossed")
	}
}

// An interval ending at a call (its value is the indirect call's target)
// may take a caller-saved temporary; one spanning a call must take a
// callee-saved register.
func TestIntervalAtCallVersusAcross(t *testing.T) {
	const target, kept vreg = 1, 2
	blocks := []*vblock{{label: "entry", insts: []vinst{
		{op: isa.MOVZ, rd: target, imm: 64},                            // 0
		{op: isa.MOVZ, rd: kept, imm: 7},                               // 1
		{op: isa.BLR, rn: target},                                      // 2: target's interval ends here
		{op: isa.ORRrs, rd: phys(isa.X0), rn: phys(isa.XZR), rm: kept}, // 3
		{op: isa.RET}, // 4
	}}}
	alloc := allocateRegisters(blocks)
	if r := alloc.regOf[target]; r == isa.NoReg || r.IsCalleeSaved() {
		t.Errorf("call target got %v, want a caller-saved temporary", r)
	}
	if r := alloc.regOf[kept]; !r.IsCalleeSaved() {
		t.Errorf("value live across the call got %v, want callee-saved", r)
	}
}
