package isa

import (
	"fmt"
	"strings"
)

// Op is an instruction opcode. The mnemonic spellings follow LLVM's MIR
// conventions for AArch64 (ORRXrs, STPXpre, ...) so that dumps resemble the
// listings in the paper.
type Op uint8

// Opcodes.
const (
	BAD Op = iota

	// Data processing.
	MOVZ  // MOVZ  Rd, #imm          Rd = imm (pseudo: full 64-bit immediate)
	ORRrs // ORRXrs Rd, Rn, Rm       Rd = Rn | Rm (Rn=XZR encodes a register move)
	ANDrs // ANDXrs Rd, Rn, Rm       Rd = Rn & Rm
	EORrs // EORXrs Rd, Rn, Rm       Rd = Rn ^ Rm
	ADDrs // ADDXrs Rd, Rn, Rm       Rd = Rn + Rm
	ADDri // ADDXri Rd, Rn, #imm     Rd = Rn + imm
	SUBrs // SUBXrs Rd, Rn, Rm       Rd = Rn - Rm
	SUBri // SUBXri Rd, Rn, #imm     Rd = Rn - imm
	MUL   // MADDXrrr Rd, Rn, Rm     Rd = Rn * Rm (xzr accumulator)
	SDIV  // SDIVXr Rd, Rn, Rm       Rd = Rn / Rm (signed, trap on /0)
	MSUB  // MSUBXrrr Rd, Rn, Rm, Ra Rd = Ra - Rn*Rm (used for remainder)
	LSLri // LSLXri Rd, Rn, #imm     Rd = Rn << imm
	LSRri // LSRXri Rd, Rn, #imm     Rd = Rn >> imm (logical)
	ASRri // ASRXri Rd, Rn, #imm     Rd = Rn >> imm (arithmetic)

	// Flag setting and conditional materialization.
	CMPrs // SUBSXrs xzr, Rn, Rm     set NZCV from Rn - Rm
	CMPri // SUBSXri xzr, Rn, #imm   set NZCV from Rn - imm
	CSET  // CSETXr Rd, cond         Rd = cond ? 1 : 0

	// Memory.
	LDRui   // LDRXui  Rd, [Rn, #imm]      load 8 bytes
	STRui   // STRXui  Rd, [Rn, #imm]      store 8 bytes
	LDPui   // LDPXi   Rd, Rd2, [Rn, #imm] load pair
	STPui   // STPXi   Rd, Rd2, [Rn, #imm] store pair
	STPpre  // STPXpre Rd, Rd2, [SP, #-imm]! push pair, writes SP
	LDPpost // LDPXpost Rd, Rd2, [SP], #imm  pop pair, writes SP
	STRpre  // STRXpre Rd, [SP, #-imm]!     push one register, writes SP
	LDRpost // LDRXpost Rd, [SP], #imm      pop one register, writes SP

	// Address formation. Stands for an ADRP+ADDXri pair: 8 bytes.
	ADR // ADRP+ADD Rd, sym        Rd = &sym

	// Control flow.
	B    // B label                 unconditional branch (label or symbol)
	Bcc  // B.cond label            conditional branch on NZCV
	CBZ  // CBZX Rn, label          branch if Rn == 0
	CBNZ // CBNZX Rn, label         branch if Rn != 0
	BL   // BL sym                  call: LR = return address
	BLR  // BLR Rn                  indirect call through Rn
	RET  // RET                     return through LR
	BRK  // BRK #imm                trap

	NOP

	NumOps
)

// Cond is a condition code for Bcc/CSET.
type Cond uint8

// Condition codes (signed comparisons only; unsigned are not generated).
const (
	EQ Cond = iota
	NE
	LT
	LE
	GT
	GE
	CondNone Cond = 255
)

func (c Cond) String() string {
	switch c {
	case EQ:
		return "eq"
	case NE:
		return "ne"
	case LT:
		return "lt"
	case LE:
		return "le"
	case GT:
		return "gt"
	case GE:
		return "ge"
	default:
		return "al"
	}
}

// Negate returns the inverse condition.
func (c Cond) Negate() Cond {
	switch c {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return c
}

// Inst is one machine instruction. The operand slots are interpreted
// per-opcode (see the Op constants). Unused slots hold NoReg / 0 / "" so that
// structural equality of the struct coincides with semantic equality of the
// instruction, which is what the outliner's instruction mapper relies on.
type Inst struct {
	Op   Op
	Rd   Reg    // destination (first of pair for LDP/STP)
	Rd2  Reg    // second of pair for LDP/STP
	Rn   Reg    // base register / first source
	Rm   Reg    // second source
	Imm  int64  // immediate
	Sym  string // branch label, call target, or global symbol
	Cond Cond
}

// Mnemonic spellings indexed by Op, for printing and parsing.
var opNames = [NumOps]string{
	BAD:     "BAD",
	MOVZ:    "MOVZXi",
	ORRrs:   "ORRXrs",
	ANDrs:   "ANDXrs",
	EORrs:   "EORXrs",
	ADDrs:   "ADDXrs",
	ADDri:   "ADDXri",
	SUBrs:   "SUBXrs",
	SUBri:   "SUBXri",
	MUL:     "MULXrr",
	SDIV:    "SDIVXr",
	MSUB:    "MSUBXrr",
	LSLri:   "LSLXri",
	LSRri:   "LSRXri",
	ASRri:   "ASRXri",
	CMPrs:   "CMPXrs",
	CMPri:   "CMPXri",
	CSET:    "CSETXr",
	LDRui:   "LDRXui",
	STRui:   "STRXui",
	LDPui:   "LDPXi",
	STPui:   "STPXi",
	STPpre:  "STPXpre",
	LDPpost: "LDPXpost",
	STRpre:  "STRXpre",
	LDRpost: "LDRXpost",
	ADR:     "ADRP",
	B:       "B",
	Bcc:     "Bcc",
	CBZ:     "CBZX",
	CBNZ:    "CBNZX",
	BL:      "BL",
	BLR:     "BLR",
	RET:     "RET",
	BRK:     "BRK",
	NOP:     "NOP",
}

// OpName returns the mnemonic for op.
func OpName(op Op) string {
	if op < NumOps {
		return opNames[op]
	}
	return "BAD"
}

// OpFromName returns the opcode with the given mnemonic.
func OpFromName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opNames[op]] = op
	}
	return m
}()

// Size returns the encoded size of the instruction in bytes. AArch64 is
// fixed-width (4 bytes); the ADR pseudo stands for an ADRP+ADD pair.
func (in Inst) Size() int {
	if in.Op == ADR {
		return 8
	}
	return 4
}

// String renders the instruction in an LLVM-MIR-like syntax, e.g.
//
//	ORRXrs $x0, $xzr, $x20
//	BL @swift_release
//	STPXpre $x26, $x25, $sp, #-64
func (in Inst) String() string {
	var b strings.Builder
	b.WriteString(opNames[in.Op])
	sep := " "
	emitReg := func(r Reg) {
		b.WriteString(sep)
		b.WriteByte('$')
		b.WriteString(r.String())
		sep = ", "
	}
	emitImm := func(v int64) {
		fmt.Fprintf(&b, "%s#%d", sep, v)
		sep = ", "
	}
	emitSym := func(s string) {
		fmt.Fprintf(&b, "%s@%s", sep, s)
		sep = ", "
	}
	switch in.Op {
	case MOVZ:
		emitReg(in.Rd)
		emitImm(in.Imm)
	case ORRrs, ANDrs, EORrs, ADDrs, SUBrs, MUL, SDIV:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitReg(in.Rm)
	case MSUB:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitReg(in.Rm)
		emitReg(in.Rd2) // the accumulator Ra
	case ADDri, SUBri, LSLri, LSRri, ASRri:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case CMPrs:
		emitReg(in.Rn)
		emitReg(in.Rm)
	case CMPri:
		emitReg(in.Rn)
		emitImm(in.Imm)
	case CSET:
		emitReg(in.Rd)
		b.WriteString(sep)
		b.WriteString(in.Cond.String())
		sep = ", "
	case LDRui, STRui:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case LDPui, STPui, STPpre, LDPpost:
		emitReg(in.Rd)
		emitReg(in.Rd2)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case STRpre, LDRpost:
		emitReg(in.Rd)
		emitReg(in.Rn)
		emitImm(in.Imm)
	case ADR:
		emitReg(in.Rd)
		emitSym(in.Sym)
	case B, BL:
		emitSym(in.Sym)
	case Bcc:
		b.WriteString(".")
		b.WriteString(in.Cond.String())
		emitSym(in.Sym)
	case CBZ, CBNZ:
		emitReg(in.Rn)
		emitSym(in.Sym)
	case BLR:
		emitReg(in.Rn)
	case BRK:
		emitImm(in.Imm)
	case RET, NOP:
	}
	return b.String()
}

// MoveRR builds the canonical AArch64 register move "ORRXrs Rd, xzr, Rm".
// These moves, materializing calling conventions before calls, are the most
// frequently repeated machine pattern the paper observes (Listings 1-6).
func MoveRR(rd, rm Reg) Inst { return Inst{Op: ORRrs, Rd: rd, Rn: XZR, Rm: rm} }

// IsMoveRR reports whether in is a canonical register move.
func (in Inst) IsMoveRR() bool { return in.Op == ORRrs && in.Rn == XZR }
