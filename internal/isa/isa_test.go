package isa

import (
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{X0, "x0"}, {X28, "x28"}, {FP, "x29"}, {LR, "x30"},
		{SP, "sp"}, {XZR, "xzr"}, {NoReg, "noreg"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestArgReg(t *testing.T) {
	for i := 0; i < NumArgRegs; i++ {
		if got := ArgReg(i); got != X0+Reg(i) {
			t.Errorf("ArgReg(%d) = %v, want x%d", i, got, i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ArgReg(8) did not panic")
		}
	}()
	ArgReg(8)
}

func TestCalleeSaved(t *testing.T) {
	saved := []Reg{X19, X20, X25, X28, FP, LR}
	for _, r := range saved {
		if !r.IsCalleeSaved() {
			t.Errorf("%v should be callee saved", r)
		}
	}
	notSaved := []Reg{X0, X7, X9, X15, SP, XZR}
	for _, r := range notSaved {
		if r.IsCalleeSaved() {
			t.Errorf("%v should not be callee saved", r)
		}
	}
}

func TestCondNegate(t *testing.T) {
	for _, c := range []Cond{EQ, NE, LT, LE, GT, GE} {
		if c.Negate().Negate() != c {
			t.Errorf("double negation of %v is not identity", c)
		}
		if c.Negate() == c {
			t.Errorf("negation of %v is itself", c)
		}
	}
}

func TestOpNameRoundTrip(t *testing.T) {
	for op := MOVZ; op < NumOps; op++ {
		name := OpName(op)
		got, ok := OpFromName(name)
		if !ok || got != op {
			t.Errorf("OpFromName(OpName(%d)) = %d, %v", op, got, ok)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{MoveRR(X0, X20), "ORRXrs $x0, $xzr, $x20"},
		{Inst{Op: BL, Sym: "swift_release"}, "BL @swift_release"},
		{Inst{Op: STPpre, Rd: X26, Rd2: X25, Rn: SP, Imm: -64}, "STPXpre $x26, $x25, $sp, #-64"},
		{Inst{Op: LDPpost, Rd: X26, Rd2: X25, Rn: SP, Imm: 64}, "LDPXpost $x26, $x25, $sp, #64"},
		{Inst{Op: RET}, "RET"},
		{Inst{Op: Bcc, Cond: NE, Sym: "bb3"}, "Bcc.ne @bb3"},
		{Inst{Op: CBZ, Rn: X3, Sym: "err"}, "CBZX $x3, @err"},
		{Inst{Op: MOVZ, Rd: X1, Imm: 42}, "MOVZXi $x1, #42"},
		{Inst{Op: LDRui, Rd: X9, Rn: SP, Imm: 16}, "LDRXui $x9, $sp, #16"},
		{Inst{Op: CSET, Rd: X0, Cond: EQ}, "CSETXr $x0, eq"},
		{Inst{Op: ADR, Rd: X2, Sym: "gMap"}, "ADRP $x2, @gMap"},
		{Inst{Op: MSUB, Rd: X0, Rn: X1, Rm: X2, Rd2: X3}, "MSUBXrr $x0, $x1, $x2, $x3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestInstSize(t *testing.T) {
	if got := (Inst{Op: ADR, Rd: X0, Sym: "g"}).Size(); got != 8 {
		t.Errorf("ADR size = %d, want 8", got)
	}
	if got := (Inst{Op: BL, Sym: "f"}).Size(); got != 4 {
		t.Errorf("BL size = %d, want 4", got)
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in        Inst
		defs, use []Reg
	}{
		{MoveRR(X0, X20), []Reg{X0}, []Reg{X20}},
		{Inst{Op: BL, Sym: "f"}, []Reg{LR}, nil},
		{Inst{Op: RET}, nil, []Reg{LR}},
		{Inst{Op: STRui, Rd: X1, Rn: X2, Imm: 8}, nil, []Reg{X1, X2}},
		{Inst{Op: LDPpost, Rd: X19, Rd2: X20, Rn: SP, Imm: 32}, []Reg{X19, X20, SP}, []Reg{SP}},
		{Inst{Op: STPpre, Rd: X19, Rd2: X20, Rn: SP, Imm: -32}, []Reg{SP}, []Reg{X19, X20, SP}},
		{Inst{Op: MSUB, Rd: X0, Rn: X1, Rm: X2, Rd2: X3}, []Reg{X0}, []Reg{X1, X2, X3}},
		{Inst{Op: CBNZ, Rn: X5, Sym: "l"}, nil, []Reg{X5}},
	}
	for _, c := range cases {
		if got := c.in.Defs(nil); !regsEqual(got, c.defs) {
			t.Errorf("%v Defs = %v, want %v", c.in, got, c.defs)
		}
		if got := c.in.Uses(nil); !regsEqual(got, c.use) {
			t.Errorf("%v Uses = %v, want %v", c.in, got, c.use)
		}
	}
}

func regsEqual(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestXZRNeverTracked(t *testing.T) {
	in := Inst{Op: ORRrs, Rd: X0, Rn: XZR, Rm: XZR}
	if uses := in.Uses(nil); len(uses) != 0 {
		t.Errorf("XZR appears in uses: %v", uses)
	}
}

func TestSPPredicates(t *testing.T) {
	frame := Inst{Op: STPpre, Rd: X19, Rd2: X20, Rn: SP, Imm: -32}
	if !frame.ModifiesSP() || !frame.ReadsSP() {
		t.Error("STPpre on sp must modify and read SP")
	}
	spill := Inst{Op: STRui, Rd: X8, Rn: SP, Imm: 0}
	if spill.ModifiesSP() {
		t.Error("SP-relative store must not be classified as modifying SP")
	}
	if !spill.ReadsSP() {
		t.Error("SP-relative store must read SP")
	}
	plain := MoveRR(X0, X1)
	if plain.ModifiesSP() || plain.ReadsSP() {
		t.Error("plain move must not touch SP")
	}
	spAdj := Inst{Op: SUBri, Rd: SP, Rn: SP, Imm: 16}
	if !spAdj.ModifiesSP() {
		t.Error("SUB sp, sp, #16 must modify SP")
	}
}

func TestFlagsPredicates(t *testing.T) {
	if !(Inst{Op: CMPri, Rn: X0, Imm: 3}).SetsFlags() {
		t.Error("CMPri must set flags")
	}
	if !(Inst{Op: Bcc, Cond: EQ, Sym: "l"}).ReadsFlags() {
		t.Error("Bcc must read flags")
	}
	if (Inst{Op: ADDri, Rd: X0, Rn: X0, Imm: 1}).SetsFlags() {
		t.Error("ADDri must not set flags")
	}
}

func TestTerminatorsAndCalls(t *testing.T) {
	terms := []Op{B, Bcc, CBZ, CBNZ, RET, BRK}
	for _, op := range terms {
		if !(Inst{Op: op}).IsTerminator() {
			t.Errorf("%s should be a terminator", OpName(op))
		}
	}
	if (Inst{Op: BL}).IsTerminator() {
		t.Error("BL must not be a terminator (it links)")
	}
	if !(Inst{Op: BL}).IsCall() || !(Inst{Op: BLR}).IsCall() {
		t.Error("BL/BLR must be calls")
	}
}

// Fingerprint must be a function of the full semantic identity: equal
// structs hash equal, and each field perturbs the hash.
func TestFingerprintProperties(t *testing.T) {
	f := func(op uint8, rd, rn, rm uint8, imm int64, sym string) bool {
		in := Inst{Op: Op(op % uint8(NumOps)), Rd: Reg(rd % 34), Rn: Reg(rn % 34), Rm: Reg(rm % 34), Imm: imm, Sym: sym}
		same := in
		return in.Fingerprint() == same.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	a := MoveRR(X0, X20)
	variants := []Inst{
		MoveRR(X0, X21),
		MoveRR(X1, X20),
		{Op: ADDrs, Rd: X0, Rn: XZR, Rm: X20},
		{Op: ORRrs, Rd: X0, Rn: XZR, Rm: X20, Imm: 1},
		{Op: ORRrs, Rd: X0, Rn: XZR, Rm: X20, Sym: "x"},
	}
	for _, v := range variants {
		if a.Fingerprint() == v.Fingerprint() {
			t.Errorf("fingerprint collision between %v and %v", a, v)
		}
	}
}

func TestUsesLR(t *testing.T) {
	if (Inst{Op: BL, Sym: "f"}).UsesLR() {
		t.Error("BL's implicit LR def must not count as explicit LR use")
	}
	if (Inst{Op: RET}).UsesLR() {
		t.Error("RET's implicit LR read must not count as explicit LR use")
	}
	if !(Inst{Op: ORRrs, Rd: X0, Rn: XZR, Rm: LR}).UsesLR() {
		t.Error("move from LR must count as explicit LR use")
	}
	if !(Inst{Op: ORRrs, Rd: LR, Rn: XZR, Rm: X0}).UsesLR() {
		t.Error("move into LR must count as explicit LR use")
	}
}

// UsesLR runs on every instruction the outliner maps; its operand lists
// live on the stack.
func TestUsesLRAllocatesNothing(t *testing.T) {
	insts := []Inst{
		{Op: ORRrs, Rd: X0, Rn: XZR, Rm: LR},
		{Op: STPpre, Rd: FP, Rd2: LR, Rn: SP, Imm: -16},
		{Op: LDPpost, Rd: FP, Rd2: LR, Rn: SP, Imm: 16},
		{Op: MSUB, Rd: X0, Rn: X1, Rm: X2, Rd2: X3},
		{Op: BL, Sym: "f"},
		{Op: RET},
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, in := range insts {
			if in.UsesLR() {
				n++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("UsesLR allocates %.1f times per run, want 0", allocs)
	}
	if n == 0 {
		t.Error("no instruction reported an LR use")
	}
}
