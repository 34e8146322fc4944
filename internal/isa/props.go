package isa

import "hash/maphash"

// Defs appends the registers written by in to dst and returns it. The NZCV
// flags are tracked separately (see SetsFlags/ReadsFlags). Calls clobber the
// caller-saved set; that is handled by callers that care (liveness), not
// here, because it depends on the calling convention rather than on the
// instruction encoding.
func (in Inst) Defs(dst []Reg) []Reg {
	switch in.Op {
	case MOVZ, ORRrs, ANDrs, EORrs, ADDrs, ADDri, SUBrs, SUBri,
		MUL, SDIV, MSUB, LSLri, LSRri, ASRri, CSET, LDRui, ADR:
		dst = appendReg(dst, in.Rd)
	case LDPui:
		dst = appendReg(dst, in.Rd)
		dst = appendReg(dst, in.Rd2)
	case LDPpost:
		dst = appendReg(dst, in.Rd)
		dst = appendReg(dst, in.Rd2)
		dst = appendReg(dst, in.Rn) // writeback
	case LDRpost:
		dst = appendReg(dst, in.Rd)
		dst = appendReg(dst, in.Rn) // writeback
	case STPpre, STRpre:
		dst = appendReg(dst, in.Rn) // writeback
	case BL, BLR:
		dst = appendReg(dst, LR)
	}
	return dst
}

// Uses appends the registers read by in to dst and returns it.
func (in Inst) Uses(dst []Reg) []Reg {
	switch in.Op {
	case ORRrs, ANDrs, EORrs, ADDrs, SUBrs, MUL, SDIV, CMPrs:
		dst = appendReg(dst, in.Rn)
		dst = appendReg(dst, in.Rm)
	case MSUB:
		// Rd = Ra - Rn*Rm with Ra in Rd pre-state is not modeled; our MSUB
		// reads Rn, Rm and the accumulator carried in Rd2.
		dst = appendReg(dst, in.Rn)
		dst = appendReg(dst, in.Rm)
		dst = appendReg(dst, in.Rd2)
	case ADDri, SUBri, LSLri, LSRri, ASRri, CMPri, LDRui:
		dst = appendReg(dst, in.Rn)
	case STRui:
		dst = appendReg(dst, in.Rd)
		dst = appendReg(dst, in.Rn)
	case LDPui:
		dst = appendReg(dst, in.Rn)
	case STPui, STPpre:
		dst = appendReg(dst, in.Rd)
		dst = appendReg(dst, in.Rd2)
		dst = appendReg(dst, in.Rn)
	case STRpre:
		dst = appendReg(dst, in.Rd)
		dst = appendReg(dst, in.Rn)
	case LDPpost, LDRpost:
		dst = appendReg(dst, in.Rn)
	case CBZ, CBNZ, BLR:
		dst = appendReg(dst, in.Rn)
	case RET:
		dst = appendReg(dst, LR)
	}
	return dst
}

func appendReg(dst []Reg, r Reg) []Reg {
	if r == NoReg || r == XZR {
		return dst
	}
	return append(dst, r)
}

// SetsFlags reports whether in writes the NZCV flags.
func (in Inst) SetsFlags() bool { return in.Op == CMPrs || in.Op == CMPri }

// ReadsFlags reports whether in reads the NZCV flags.
func (in Inst) ReadsFlags() bool { return in.Op == Bcc || in.Op == CSET }

// IsTerminator reports whether in ends a basic block.
func (in Inst) IsTerminator() bool {
	switch in.Op {
	case B, Bcc, CBZ, CBNZ, RET, BRK:
		return true
	}
	return false
}

// IsCall reports whether in transfers control with a link (BL/BLR).
func (in Inst) IsCall() bool { return in.Op == BL || in.Op == BLR }

// IsReturn reports whether in returns from the function.
func (in Inst) IsReturn() bool { return in.Op == RET }

// ModifiesSP reports whether in writes the stack pointer. Such instructions
// (frame setup/destruction, SP adjustment) are never outlined: moving them
// into a function would corrupt the frame of their original context. The
// paper observes exactly these sequences (Listings 7 and 8) among the most
// repeated patterns, yet they remain outside the outliner's reach — our
// legality rules reproduce that.
func (in Inst) ModifiesSP() bool {
	switch in.Op {
	case STPpre, LDPpost, STRpre, LDRpost:
		return in.Rn == SP
	case ADDri, SUBri:
		return in.Rd == SP
	}
	return false
}

// ReadsSP reports whether in uses an SP-relative address or otherwise reads
// SP. Candidates containing such instructions can only be outlined with
// strategies that keep SP unchanged at the point the instruction executes
// (tail call, thunk, or no-LR-save); saving LR on the stack would skew every
// SP-relative offset within the candidate.
func (in Inst) ReadsSP() bool {
	switch in.Op {
	case LDRui, STRui, LDPui, STPui, STPpre, LDPpost, STRpre, LDRpost:
		return in.Rn == SP
	case ADDri, SUBri, ADDrs, SUBrs, ORRrs:
		return in.Rn == SP || in.Rm == SP
	}
	return false
}

// UsesLR reports whether in explicitly reads or writes the link register
// outside of the implicit call/return semantics.
func (in Inst) UsesLR() bool {
	var buf [4]Reg
	for _, r := range in.Uses(buf[:0]) {
		if r == LR {
			return in.Op != RET // RET's implicit LR read is handled by strategy
		}
	}
	for _, r := range in.Defs(buf[:0]) {
		if r == LR && !in.IsCall() {
			return true
		}
	}
	return false
}

var fingerprintSeed = maphash.MakeSeed()

// Fingerprint returns a hash of the instruction's full semantic identity.
// Two instructions with equal fingerprints are treated as identical by the
// outliner's instruction mapper (collisions are resolved by Inst equality,
// which is plain struct comparison).
func (in Inst) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	buf := [8]byte{byte(in.Op), byte(in.Rd), byte(in.Rd2), byte(in.Rn), byte(in.Rm), byte(in.Cond)}
	h.Write(buf[:])
	var imm [8]byte
	for i := 0; i < 8; i++ {
		imm[i] = byte(uint64(in.Imm) >> (8 * i))
	}
	h.Write(imm[:])
	h.WriteString(in.Sym)
	return h.Sum64()
}
