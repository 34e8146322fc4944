package codegen

import (
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
)

// scratch registers for spill reloads (never allocated).
var scratchRegs = [3]isa.Reg{isa.X8, isa.X17, isa.X16}

// emit produces the final machine function: virtual registers are replaced
// by their assignments, spill code is inserted around uses/defs, the frame
// (prologue/epilogue) is materialized, and branches to the immediately
// following block are elided.
func emit(f *llir.Func, blocks []*vblock, alloc *allocation) *mir.Function {
	needsFrame := alloc.hasCalls || alloc.numSpills > 0 || len(alloc.usedCS) > 0

	// Frame layout (16-byte aligned):
	//   [sp+0]                fp, lr pair
	//   [sp+16 ...]           callee-saved pairs
	//   [sp+csEnd ...]        spill slots (8 bytes each)
	csPairs := (len(alloc.usedCS) + 1) / 2
	csEnd := 16 + 16*csPairs
	frameSize := csEnd + 16*((alloc.numSpills*8+15)/16)

	out := &mir.Function{Name: f.Name, Module: f.Module}

	prologue := func(blk *mir.Block) {
		if !needsFrame {
			return
		}
		blk.Insts = append(blk.Insts, isa.Inst{
			Op: isa.STPpre, Rd: isa.FP, Rd2: isa.LR, Rn: isa.SP, Imm: -int64(frameSize),
		})
		for i := 0; i < len(alloc.usedCS); i += 2 {
			off := int64(16 + 8*i)
			if i+1 < len(alloc.usedCS) {
				blk.Insts = append(blk.Insts, isa.Inst{
					Op: isa.STPui, Rd: alloc.usedCS[i], Rd2: alloc.usedCS[i+1], Rn: isa.SP, Imm: off,
				})
			} else {
				blk.Insts = append(blk.Insts, isa.Inst{
					Op: isa.STRui, Rd: alloc.usedCS[i], Rn: isa.SP, Imm: off,
				})
			}
		}
		blk.Insts = append(blk.Insts, isa.Inst{Op: isa.ADDri, Rd: isa.FP, Rn: isa.SP, Imm: 0})
	}
	epilogue := func(blk *mir.Block) {
		if !needsFrame {
			return
		}
		for i := ((len(alloc.usedCS) - 1) / 2) * 2; i >= 0 && len(alloc.usedCS) > 0; i -= 2 {
			off := int64(16 + 8*i)
			if i+1 < len(alloc.usedCS) {
				blk.Insts = append(blk.Insts, isa.Inst{
					Op: isa.LDPui, Rd: alloc.usedCS[i], Rd2: alloc.usedCS[i+1], Rn: isa.SP, Imm: off,
				})
			} else {
				blk.Insts = append(blk.Insts, isa.Inst{
					Op: isa.LDRui, Rd: alloc.usedCS[i], Rn: isa.SP, Imm: off,
				})
			}
		}
		blk.Insts = append(blk.Insts, isa.Inst{
			Op: isa.LDPpost, Rd: isa.FP, Rd2: isa.LR, Rn: isa.SP, Imm: int64(frameSize),
		})
	}
	slotOff := func(slot int) int64 { return int64(csEnd + 8*slot) }

	for bi, vb := range blocks {
		blk := &mir.Block{Label: vb.label}
		if bi == 0 {
			prologue(blk)
		}
		for ii := range vb.insts {
			vi := &vb.insts[ii]
			if vi.op == isa.RET {
				epilogue(blk)
				blk.Insts = append(blk.Insts, isa.Inst{Op: isa.RET})
				continue
			}
			// Map operands: reload spilled uses into scratch registers,
			// write spilled defs through a scratch register.
			scratchNext := 0
			takeScratch := func() isa.Reg {
				r := scratchRegs[scratchNext]
				scratchNext++
				return r
			}
			regFor := func(v vreg, isUse bool) isa.Reg {
				if v == vnone {
					return isa.Reg(0)
				}
				if v.isPhys() {
					return v.physReg()
				}
				if r := alloc.regOf[v]; r != isa.NoReg {
					return r
				}
				slot := alloc.spillSlot[v]
				if slot < 0 {
					// A def-only value with no interval use: scratch.
					return takeScratch()
				}
				r := takeScratch()
				if isUse {
					blk.Insts = append(blk.Insts, isa.Inst{
						Op: isa.LDRui, Rd: r, Rn: isa.SP, Imm: slotOff(slot),
					})
				}
				return r
			}

			in := isa.Inst{Op: vi.op, Imm: vi.imm, Sym: vi.sym, Cond: vi.cond}
			var ubuf, dbuf [3]vreg
			uses := vinstUses(ubuf[:0], vi)
			defs := vinstDefs(dbuf[:0], vi)
			isUseField := func(v vreg, list []vreg) bool {
				for _, u := range list {
					if u == v {
						return true
					}
				}
				return false
			}
			// Resolve use operands first (loads), then the def.
			fields := []struct {
				src vreg
				dst *isa.Reg
			}{
				{vi.rn, &in.Rn}, {vi.rm, &in.Rm}, {vi.rd2, &in.Rd2},
			}
			for _, fd := range fields {
				if fd.src == vnone {
					*fd.dst = isa.Reg(0)
					continue
				}
				*fd.dst = regFor(fd.src, isUseField(fd.src, uses))
			}
			// rd can be a use (STRui) or a def.
			if vi.rd != vnone {
				if isUseField(vi.rd, uses) && !isUseField(vi.rd, defs) {
					in.Rd = regFor(vi.rd, true)
				} else {
					in.Rd = regFor(vi.rd, false)
				}
			}
			blk.Insts = append(blk.Insts, in)
			// Spill the def if needed.
			for _, d := range defs {
				if d == vnone || d.isPhys() {
					continue
				}
				if slot := alloc.spillSlot[d]; slot >= 0 {
					blk.Insts = append(blk.Insts, isa.Inst{
						Op: isa.STRui, Rd: in.Rd, Rn: isa.SP, Imm: slotOff(slot),
					})
				}
			}
		}
		out.Blocks = append(out.Blocks, blk)
	}

	elideFallthroughBranches(out)
	return out
}

// elideFallthroughBranches removes a block-final "B next" when next is the
// physically following block.
func elideFallthroughBranches(f *mir.Function) {
	for i := 0; i+1 < len(f.Blocks); i++ {
		b := f.Blocks[i]
		if len(b.Insts) == 0 {
			continue
		}
		last := b.Insts[len(b.Insts)-1]
		if last.Op == isa.B && last.Sym == f.Blocks[i+1].Label {
			b.Insts = b.Insts[:len(b.Insts)-1]
		}
	}
}
