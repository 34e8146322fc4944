package codegen

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"outliner/internal/isa"
)

// allocation is the result of register allocation.
type allocation struct {
	regOf     []isa.Reg // by vreg: NoReg unless given a register
	spillSlot []int     // by vreg: -1 unless spilled
	numSpills int
	usedCS    []isa.Reg // callee-saved registers the function writes
	hasCalls  bool
}

// operand roles: which vinst fields are written and read, per opcode. Both
// append to dst (pass a stack buffer) and return it.
func vinstDefs(dst []vreg, in *vinst) []vreg {
	switch in.op {
	case isa.MOVZ, isa.ORRrs, isa.ANDrs, isa.EORrs, isa.ADDrs, isa.ADDri,
		isa.SUBrs, isa.SUBri, isa.MUL, isa.SDIV, isa.MSUB, isa.LSLri,
		isa.LSRri, isa.ASRri, isa.CSET, isa.LDRui, isa.ADR:
		return append(dst, in.rd)
	}
	return dst
}

func vinstUses(dst []vreg, in *vinst) []vreg {
	switch in.op {
	case isa.ORRrs, isa.ANDrs, isa.EORrs, isa.ADDrs, isa.SUBrs, isa.MUL, isa.SDIV, isa.CMPrs:
		return append(dst, in.rn, in.rm)
	case isa.MSUB:
		return append(dst, in.rn, in.rm, in.rd2)
	case isa.ADDri, isa.SUBri, isa.LSLri, isa.LSRri, isa.ASRri, isa.CMPri, isa.LDRui:
		return append(dst, in.rn)
	case isa.STRui:
		return append(dst, in.rd, in.rn)
	case isa.CBZ, isa.CBNZ, isa.BLR:
		return append(dst, in.rn)
	}
	return dst
}

func isCallOp(op isa.Op) bool { return op == isa.BL || op == isa.BLR }

// crossesCall reports whether a call position lies strictly inside
// (start, end): whether the first call after start comes before end. calls
// is ascending.
func crossesCall(calls []int, start, end int) bool {
	c := sort.SearchInts(calls, start+1)
	return c < len(calls) && calls[c] < end
}

// vset is a bitset over virtual registers 0..maxV.
type vset []uint64

func (s vset) add(v vreg)      { s[v>>6] |= 1 << (v & 63) }
func (s vset) has(v vreg) bool { return s[v>>6]&(1<<(v&63)) != 0 }

// each calls fn for every member of s.
func (s vset) each(fn func(v vreg)) {
	for w, word := range s {
		for word != 0 {
			fn(vreg(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// interval is a live interval over linearized instruction positions.
type interval struct {
	v          vreg
	start, end int // start < 0: v never appears
	crossCall  bool
}

// allocateRegisters runs a Poletto-style linear scan. Values live across
// calls go to callee-saved registers (producing the STP/LDP prologue
// patterns of the paper's Listings 7-8); short-lived values use caller-saved
// temporaries; overflow spills to the stack.
func allocateRegisters(blocks []*vblock) *allocation {
	// Number the instructions in block order: record block boundaries, call
	// positions, and the largest virtual register.
	blockStart := make([]int, len(blocks))
	blockEnd := make([]int, len(blocks))
	labels := make(map[string]bool, len(blocks))
	labelIdx := make(map[string]int, len(blocks))
	for bi, b := range blocks {
		labels[b.label] = true
		labelIdx[b.label] = bi
	}
	var callPositions []int
	var buf [4]vreg // one def plus up to three uses
	maxV, n := vreg(0), 0
	for bi, b := range blocks {
		blockStart[bi] = n
		for ii := range b.insts {
			in := &b.insts[ii]
			if isCallOp(in.op) {
				callPositions = append(callPositions, n)
			}
			for _, v := range vinstUses(vinstDefs(buf[:0], in), in) {
				maxV = max(maxV, v)
			}
			n++
		}
		blockEnd[bi] = n - 1
	}
	alloc := &allocation{
		regOf:     make([]isa.Reg, maxV+1),
		spillSlot: make([]int, maxV+1),
		hasCalls:  len(callPositions) > 0,
	}
	for v := range alloc.regOf {
		alloc.regOf[v], alloc.spillSlot[v] = isa.NoReg, -1
	}

	// Per-block use/def/live-in/live-out bitsets over virtual registers,
	// carved from one backing array.
	words := int(maxV)/64 + 1
	sets := make(vset, 4*len(blocks)*words)
	set := func(kind, bi int) vset {
		o := (kind*len(blocks) + bi) * words
		return sets[o : o+words : o+words]
	}
	useSet := func(bi int) vset { return set(0, bi) }
	defSet := func(bi int) vset { return set(1, bi) }
	liveIn := func(bi int) vset { return set(2, bi) }
	liveOut := func(bi int) vset { return set(3, bi) }
	for bi, b := range blocks {
		use, def := useSet(bi), defSet(bi)
		for ii := range b.insts {
			in := &b.insts[ii]
			for _, u := range vinstUses(buf[:0], in) {
				if u > 0 && !def.has(u) {
					use.add(u)
				}
			}
			for _, d := range vinstDefs(buf[:0], in) {
				if d > 0 {
					def.add(d)
				}
			}
		}
	}

	// Backward liveness to a fixed point. The sets only grow, so each pass
	// updates them in place.
	succIdx := make([][]int, len(blocks))
	for bi, b := range blocks {
		for _, s := range b.succs(labels) {
			succIdx[bi] = append(succIdx[bi], labelIdx[s])
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			out, in, use, def := liveOut(bi), liveIn(bi), useSet(bi), defSet(bi)
			for _, s := range succIdx[bi] {
				for w, x := range liveIn(s) {
					out[w] |= x
				}
			}
			for w := range in {
				if x := use[w] | out[w]&^def[w]; x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}

	// Build intervals, indexed by virtual register.
	ivals := make([]interval, maxV+1)
	for v := range ivals {
		ivals[v] = interval{v: vreg(v), start: -1}
	}
	touch := func(v vreg, p int) {
		if v <= 0 {
			return
		}
		iv := &ivals[v]
		if iv.start < 0 {
			iv.start, iv.end = p, p
			return
		}
		iv.start = min(iv.start, p)
		iv.end = max(iv.end, p)
	}
	for bi, b := range blocks {
		for ii := range b.insts {
			p := blockStart[bi] + ii
			in := &b.insts[ii]
			for _, d := range vinstDefs(buf[:0], in) {
				touch(d, p)
			}
			for _, u := range vinstUses(buf[:0], in) {
				touch(u, p)
			}
		}
		liveIn(bi).each(func(v vreg) { touch(v, blockStart[bi]) })
		liveOut(bi).each(func(v vreg) { touch(v, blockEnd[bi]) })
	}

	var sorted []*interval
	for v := range ivals {
		iv := &ivals[v]
		if iv.start < 0 {
			continue
		}
		iv.crossCall = crossesCall(callPositions, iv.start, iv.end)
		sorted = append(sorted, iv)
	}
	slices.SortFunc(sorted, func(a, b *interval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.v, b.v))
	})

	type activeEntry struct {
		iv  *interval
		reg isa.Reg
	}
	var active []activeEntry
	var free, usedCS [isa.NumRegs]bool
	for _, r := range tempRegs {
		free[r] = true
	}
	for _, r := range savedRegs {
		free[r] = true
	}

	expire := func(p int) {
		kept := active[:0]
		for _, ae := range active {
			if ae.iv.end < p {
				free[ae.reg] = true
			} else {
				kept = append(kept, ae)
			}
		}
		active = kept
	}
	takeFrom := func(pool []isa.Reg) (isa.Reg, bool) {
		for _, r := range pool {
			if free[r] {
				free[r] = false
				return r, true
			}
		}
		return 0, false
	}

	for _, iv := range sorted {
		expire(iv.start)
		var reg isa.Reg
		var ok bool
		if iv.crossCall {
			reg, ok = takeFrom(savedRegs)
		} else {
			if reg, ok = takeFrom(tempRegs); !ok {
				reg, ok = takeFrom(savedRegs)
			}
		}
		if !ok {
			// Spill the current interval.
			alloc.spillSlot[iv.v] = alloc.numSpills
			alloc.numSpills++
			continue
		}
		if reg.IsCalleeSaved() {
			usedCS[reg] = true
		}
		alloc.regOf[iv.v] = reg
		active = append(active, activeEntry{iv: iv, reg: reg})
	}

	for r, used := range usedCS {
		if used {
			alloc.usedCS = append(alloc.usedCS, isa.Reg(r))
		}
	}
	return alloc
}

// Register pools: caller-saved temporaries and allocatable callee-saved
// registers, each in preference order.
var tempRegs, savedRegs = func() (temps, saved []isa.Reg) {
	for r := isa.FirstTemp; r <= isa.LastTemp; r++ {
		temps = append(temps, r)
	}
	for r := isa.FirstCalleeSaved; r <= isa.LastCalleeSaved; r++ {
		if r.IsAllocatable() {
			saved = append(saved, r)
		}
	}
	return temps, saved
}()
