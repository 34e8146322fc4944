package codegen

import (
	"fmt"
	"math/bits"

	"outliner/internal/isa"
	"outliner/internal/llir"
)

// vreg is a register operand during selection: positive ids are virtual
// registers (llir value numbers), negative ids encode physical registers.
type vreg int

const vnone vreg = 0

func phys(r isa.Reg) vreg       { return -vreg(r) - 1 }
func (v vreg) isPhys() bool     { return v < 0 }
func (v vreg) physReg() isa.Reg { return isa.Reg(-v - 1) }

// vinst is a machine instruction with (possibly) virtual register operands.
type vinst struct {
	op   isa.Op
	rd   vreg
	rd2  vreg
	rn   vreg
	rm   vreg
	imm  int64
	sym  string
	cond isa.Cond
}

// vblock is a pre-RA basic block.
type vblock struct {
	label string
	insts []vinst
}

// succs extracts the control-flow successors of the block (labels only;
// RET/BRK and tail-calls have none).
func (b *vblock) succs(labels map[string]bool) []string {
	var out []string
	for i := len(b.insts) - 1; i >= 0; i-- {
		in := b.insts[i]
		switch in.op {
		case isa.B, isa.Bcc, isa.CBZ, isa.CBNZ:
			if labels[in.sym] {
				out = append(out, in.sym)
			}
		case isa.RET, isa.BRK:
		default:
			return out
		}
		if i == len(b.insts)-1 && (in.op == isa.RET || in.op == isa.BRK) {
			return nil
		}
	}
	return out
}

type selector struct {
	f       *llir.Func
	useCnt  []int        // by value
	defOf   []*llir.Inst // by value: the last def
	skipped []bool       // by value: Const defs fully folded; Cmp defs fused
	// soleConst marks the values whose only def is a Const. Only those may
	// fold into immediates: after SSA destruction a value can have several
	// defs, and Consts of different immediates cannot share one fold.
	soleConst []bool
	// users lists, by value, the users of every soleConst value, one entry
	// per use occurrence.
	users [][]*llir.Inst
	ubuf  []llir.Value // scratch for appendUses
}

// selectInstructions lowers the (post-SSA) LLIR function to vinsts.
func selectInstructions(f *llir.Func) ([]*vblock, error) {
	s := &selector{f: f}
	// Values are dense numbers: size the per-value tables by the largest
	// one any instruction mentions.
	maxV := llir.Value(f.NumParams)
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			maxV = max(maxV, in.Dst, in.ErrDst)
			for _, u := range s.appendUses(in) {
				maxV = max(maxV, u)
			}
		}
	}
	s.useCnt = make([]int, maxV+1)
	s.defOf = make([]*llir.Inst, maxV+1)
	s.skipped = make([]bool, maxV+1)
	s.users = make([][]*llir.Inst, maxV+1)
	s.soleConst = make([]bool, maxV+1)
	defCnt := make([]int, maxV+1)
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Dst != llir.None {
				s.defOf[in.Dst] = in
				defCnt[in.Dst]++
			}
			if in.Op == llir.Call && in.ErrDst != llir.None {
				s.defOf[in.ErrDst] = in
				defCnt[in.ErrDst]++
			}
		}
	}
	for v, d := range s.defOf {
		s.soleConst[v] = defCnt[v] == 1 && d.Op == llir.Const
	}
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			for _, u := range s.appendUses(in) {
				s.useCnt[u]++
				if s.soleConst[u] {
					s.users[u] = append(s.users[u], in)
				}
			}
		}
	}
	s.planFolding()

	var out []*vblock
	for bi, b := range f.Blocks {
		vb := &vblock{label: b.Label}
		if bi == 0 {
			// Materialize incoming parameters from the argument registers.
			if f.NumParams > isa.NumArgRegs {
				return nil, fmt.Errorf("%d parameters exceed the %d argument registers",
					f.NumParams, isa.NumArgRegs)
			}
			for i := 0; i < f.NumParams; i++ {
				vb.insts = append(vb.insts, vinst{
					op: isa.ORRrs, rd: vreg(f.Param(i)), rn: phys(isa.XZR), rm: phys(isa.ArgReg(i)),
				})
			}
		}
		for i := range b.Insts {
			if err := s.lower(vb, b, i); err != nil {
				return nil, err
			}
		}
		out = append(out, vb)
	}
	return out, nil
}

// appendUses returns the values in reads, one entry per operand occurrence,
// in the selector's scratch buffer: the slice is valid until the next call.
func (s *selector) appendUses(in *llir.Inst) []llir.Value {
	out := s.ubuf[:0]
	add := func(v llir.Value) {
		if v != llir.None {
			out = append(out, v)
		}
	}
	switch in.Op {
	case llir.Const, llir.GlobalAddr, llir.Br, llir.Unreachable:
	case llir.Ret:
		add(in.A)
		add(in.B)
	case llir.Store:
		add(in.A)
		add(in.B)
	case llir.Call:
		// Args only.
	case llir.CallInd:
		add(in.A)
	default:
		add(in.A)
		add(in.B)
	}
	for _, a := range in.Args {
		add(a)
	}
	for _, inc := range in.Incomings {
		add(inc.Val)
	}
	s.ubuf = out
	return out
}

// planFolding decides which Const definitions vanish entirely into immediate
// operands, and which Cmp definitions fuse into their consuming conditional
// branch.
func (s *selector) planFolding() {
	for _, b := range s.f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			switch in.Op {
			case llir.Const:
				if s.soleConst[in.Dst] && s.allUsesFoldable(in.Dst, in.Imm) {
					s.skipped[in.Dst] = true
				}
			case llir.Cmp:
				if s.useCnt[in.Dst] == 1 {
					if user := s.singleUserInBlock(b, in.Dst); user != nil && user.Op == llir.CondBr {
						s.skipped[in.Dst] = true
					}
				}
			}
		}
	}
}

func (s *selector) singleUserInBlock(b *llir.Block, v llir.Value) *llir.Inst {
	var found *llir.Inst
	for i := range b.Insts {
		in := &b.Insts[i]
		for _, u := range s.appendUses(in) {
			if u == v {
				if found != nil {
					return nil
				}
				found = in
			}
		}
	}
	return found
}

// allUsesFoldable reports whether every use of a Const can take the
// immediate form.
func (s *selector) allUsesFoldable(v llir.Value, imm int64) bool {
	for _, user := range s.users[v] {
		if !useFoldable(user, v, imm) {
			return false
		}
	}
	return len(s.users[v]) > 0
}

func useFoldable(user *llir.Inst, v llir.Value, imm int64) bool {
	switch user.Op {
	case llir.Bin:
		if user.B != v || user.A == v {
			return false
		}
		switch user.BinOp {
		case llir.Add, llir.Sub:
			return imm >= 0 && imm < 4096
		case llir.Mul:
			return imm > 0 && imm&(imm-1) == 0 // power of two -> shift
		}
		return false
	case llir.Cmp:
		return user.B == v && user.A != v && imm >= 0 && imm < 4096
	case llir.Ret:
		// The error channel is set with an immediate move.
		return user.B == v && user.A != v
	case llir.Call, llir.CallInd:
		// Arguments can be materialized directly into argument registers.
		return argOnly(user, v)
	case llir.CondBr:
		return false
	}
	return false
}

// argOnly reports whether v appears only in the argument list of the call.
func argOnly(call *llir.Inst, v llir.Value) bool {
	if call.A == v || call.B == v {
		return false
	}
	for _, a := range call.Args {
		if a == v {
			return true
		}
	}
	return false
}

func (s *selector) constImm(v llir.Value) (int64, bool) {
	d := s.defOf[v]
	if d != nil && d.Op == llir.Const {
		return d.Imm, true
	}
	return 0, false
}

// lower translates f.Blocks[?].Insts[i] into vb.
func (s *selector) lower(vb *vblock, b *llir.Block, idx int) error {
	in := &b.Insts[idx]
	emit := func(vi vinst) { vb.insts = append(vb.insts, vi) }
	mov := func(dst, src vreg) { emit(vinst{op: isa.ORRrs, rd: dst, rn: phys(isa.XZR), rm: src}) }
	v := func(x llir.Value) vreg { return vreg(x) }

	// Argument moves for calls: constants can be moved as immediates.
	emitArgs := func(args []llir.Value) error {
		if len(args) > isa.NumArgRegs {
			return fmt.Errorf("call with %d arguments exceeds the %d argument registers",
				len(args), isa.NumArgRegs)
		}
		for i, a := range args {
			dst := phys(isa.ArgReg(i))
			if imm, ok := s.constImm(a); ok && s.skipped[a] {
				emit(vinst{op: isa.MOVZ, rd: dst, imm: imm})
			} else {
				mov(dst, v(a))
			}
		}
		return nil
	}

	switch in.Op {
	case llir.Const:
		if s.skipped[in.Dst] {
			return nil
		}
		emit(vinst{op: isa.MOVZ, rd: v(in.Dst), imm: in.Imm})
	case llir.GlobalAddr:
		emit(vinst{op: isa.ADR, rd: v(in.Dst), sym: in.Sym})
	case llir.Bin:
		if imm, ok := s.constImm(in.B); ok && s.skipped[in.B] {
			switch in.BinOp {
			case llir.Add:
				emit(vinst{op: isa.ADDri, rd: v(in.Dst), rn: v(in.A), imm: imm})
				return nil
			case llir.Sub:
				emit(vinst{op: isa.SUBri, rd: v(in.Dst), rn: v(in.A), imm: imm})
				return nil
			case llir.Mul:
				emit(vinst{op: isa.LSLri, rd: v(in.Dst), rn: v(in.A), imm: int64(bits.TrailingZeros64(uint64(imm)))})
				return nil
			}
		}
		switch in.BinOp {
		case llir.Add:
			emit(vinst{op: isa.ADDrs, rd: v(in.Dst), rn: v(in.A), rm: v(in.B)})
		case llir.Sub:
			emit(vinst{op: isa.SUBrs, rd: v(in.Dst), rn: v(in.A), rm: v(in.B)})
		case llir.Mul:
			emit(vinst{op: isa.MUL, rd: v(in.Dst), rn: v(in.A), rm: v(in.B)})
		case llir.Div:
			emit(vinst{op: isa.SDIV, rd: v(in.Dst), rn: v(in.A), rm: v(in.B)})
		case llir.Rem:
			q := vreg(s.f.NewValue())
			emit(vinst{op: isa.SDIV, rd: q, rn: v(in.A), rm: v(in.B)})
			emit(vinst{op: isa.MSUB, rd: v(in.Dst), rn: q, rm: v(in.B), rd2: v(in.A)})
		}
	case llir.Cmp:
		if s.skipped[in.Dst] {
			return nil // fused into the conditional branch
		}
		s.emitCompare(vb, in)
		emit(vinst{op: isa.CSET, rd: v(in.Dst), cond: lowerCond(in.Cond)})
	case llir.Not:
		emit(vinst{op: isa.CMPri, rn: v(in.A), imm: 0})
		emit(vinst{op: isa.CSET, rd: v(in.Dst), cond: isa.EQ})
	case llir.Neg:
		emit(vinst{op: isa.SUBrs, rd: v(in.Dst), rn: phys(isa.XZR), rm: v(in.A)})
	case llir.Load:
		emit(vinst{op: isa.LDRui, rd: v(in.Dst), rn: v(in.A), imm: in.Imm})
	case llir.Store:
		emit(vinst{op: isa.STRui, rd: v(in.B), rn: v(in.A), imm: in.Imm})
	case llir.Call:
		if err := emitArgs(in.Args); err != nil {
			return err
		}
		emit(vinst{op: isa.BL, sym: in.Sym})
		if in.Dst != llir.None {
			mov(v(in.Dst), phys(isa.X0))
		}
		if in.Throws && in.ErrDst != llir.None {
			mov(v(in.ErrDst), phys(isa.ErrReg))
		}
	case llir.CallInd:
		mov(phys(isa.X16), v(in.A))
		if err := emitArgs(in.Args); err != nil {
			return err
		}
		emit(vinst{op: isa.BLR, rn: phys(isa.X16)})
		if in.Dst != llir.None {
			mov(v(in.Dst), phys(isa.X0))
		}
	case llir.Ret:
		if in.A != llir.None {
			mov(phys(isa.X0), v(in.A))
		}
		if s.f.Throws {
			if imm, ok := s.constImm(in.B); ok && s.skipped[in.B] {
				emit(vinst{op: isa.MOVZ, rd: phys(isa.ErrReg), imm: imm})
			} else if in.B != llir.None {
				mov(phys(isa.ErrReg), v(in.B))
			}
		}
		emit(vinst{op: isa.RET})
	case llir.Br:
		emit(vinst{op: isa.B, sym: in.Sym})
	case llir.CondBr:
		if d := s.defOf[in.A]; d != nil && d.Op == llir.Cmp && s.skipped[in.A] {
			s.emitCompare(vb, d)
			emit(vinst{op: isa.Bcc, cond: lowerCond(d.Cond), sym: in.Sym})
		} else {
			emit(vinst{op: isa.CBNZ, rn: v(in.A), sym: in.Sym})
		}
		emit(vinst{op: isa.B, sym: in.Sym2})
	case opCopy:
		mov(v(in.Dst), v(in.A))
	case llir.Unreachable:
		emit(vinst{op: isa.BRK, imm: 1})
	case llir.Phi:
		return fmt.Errorf("phi survived out-of-SSA")
	default:
		return fmt.Errorf("unhandled LLIR op %d", in.Op)
	}
	return nil
}

func (s *selector) emitCompare(vb *vblock, cmp *llir.Inst) {
	if imm, ok := s.constImm(cmp.B); ok && s.skipped[cmp.B] {
		vb.insts = append(vb.insts, vinst{op: isa.CMPri, rn: vreg(cmp.A), imm: imm})
		return
	}
	vb.insts = append(vb.insts, vinst{op: isa.CMPrs, rn: vreg(cmp.A), rm: vreg(cmp.B)})
}

func lowerCond(c llir.CondKind) isa.Cond {
	switch c {
	case llir.Eq:
		return isa.EQ
	case llir.Ne:
		return isa.NE
	case llir.Lt:
		return isa.LT
	case llir.Le:
		return isa.LE
	case llir.Gt:
		return isa.GT
	case llir.Ge:
		return isa.GE
	}
	return isa.EQ
}
