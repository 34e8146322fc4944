package llir

import (
	"sort"
	"strconv"
)

// RunDefaultPasses applies the standard mid-level size pipeline in the order
// the paper's `opt` stage would: CFG cleanup, dead code elimination, then
// function merging.
func RunDefaultPasses(m *Module) {
	for _, f := range m.Funcs {
		SimplifyCFG(f)
		DCE(f)
	}
	MergeFunctions(m)
}

// ---- Dead code elimination ----

// pure reports whether an instruction has no side effects and may be removed
// when its result is unused.
func pure(in *Inst) bool {
	switch in.Op {
	case Const, GlobalAddr, Bin, Cmp, Not, Neg, Load, Phi:
		return true
	}
	return false
}

// DCE removes pure instructions whose results are never used, iterating to a
// fixed point.
func DCE(f *Func) {
	for {
		used := make(map[Value]bool)
		mark := func(v Value) {
			if v != None {
				used[v] = true
			}
		}
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				// An instruction's own Dst is a def, not a use; everything
				// else read counts.
				mark(in.A)
				mark(in.B)
				if in.Op != Call { // Call's ErrDst is a def
					mark(in.ErrDst)
				}
				for _, a := range in.Args {
					mark(a)
				}
				for _, inc := range in.Incomings {
					mark(inc.Val)
				}
			}
		}
		removed := 0
		for _, b := range f.Blocks {
			kept := b.Insts[:0]
			for _, in := range b.Insts {
				if pure(&in) && in.Dst != None && !used[in.Dst] {
					removed++
					continue
				}
				kept = append(kept, in)
			}
			b.Insts = kept
		}
		if removed == 0 {
			return
		}
	}
}

// ---- CFG simplification ----

// SimplifyCFG removes unreachable blocks, threads jumps through empty
// forwarding blocks, and merges single-successor/single-predecessor pairs.
func SimplifyCFG(f *Func) {
	removeUnreachable(f)
	threadEmptyBlocks(f)
	mergeStraightPairs(f)
	removeUnreachable(f)
}

func removeUnreachable(f *Func) {
	if len(f.Blocks) == 0 {
		return
	}
	reach := make(map[string]bool)
	var stack []string
	push := func(l string) {
		if !reach[l] {
			reach[l] = true
			stack = append(stack, l)
		}
	}
	push(f.Blocks[0].Label)
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Block(l).Succs() {
			push(s)
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.Label] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	// Prune phi incomings from removed predecessors.
	for _, b := range f.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op != Phi {
				continue
			}
			keptInc := in.Incomings[:0]
			for _, inc := range in.Incomings {
				if reach[inc.Pred] {
					keptInc = append(keptInc, inc)
				}
			}
			in.Incomings = keptInc
		}
	}
}

// threadEmptyBlocks redirects branches that target a block containing only
// "br X" to X directly, provided the final target has no phis (phi
// incomings would need repair).
func threadEmptyBlocks(f *Func) {
	target := make(map[string]string)
	hasPhi := make(map[string]bool)
	for _, b := range f.Blocks {
		if len(b.Insts) > 0 && b.Insts[0].Op == Phi {
			hasPhi[b.Label] = true
		}
	}
	for _, b := range f.Blocks {
		if len(b.Insts) == 1 && b.Insts[0].Op == Br && !hasPhi[b.Insts[0].Sym] {
			target[b.Label] = b.Insts[0].Sym
		}
	}
	resolve := func(l string) string {
		seen := 0
		for {
			t, ok := target[l]
			if !ok || seen > len(target) {
				return l
			}
			l = t
			seen++
		}
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case Br:
			t.Sym = resolve(t.Sym)
		case CondBr:
			t.Sym = resolve(t.Sym)
			t.Sym2 = resolve(t.Sym2)
		}
	}
}

// mergeStraightPairs merges B into A when A ends "br B" and B's only
// predecessor is A.
func mergeStraightPairs(f *Func) {
	for {
		preds := f.Preds()
		merged := false
		for _, a := range f.Blocks {
			t := a.Terminator()
			if t == nil || t.Op != Br {
				continue
			}
			bLabel := t.Sym
			if bLabel == a.Label || len(preds[bLabel]) != 1 {
				continue
			}
			b := f.Block(bLabel)
			if b == nil || (len(b.Insts) > 0 && b.Insts[0].Op == Phi) {
				continue
			}
			// Splice B's instructions over A's terminator.
			a.Insts = append(a.Insts[:len(a.Insts)-1], b.Insts...)
			// Phi incomings naming B as pred now come from A.
			for _, blk := range f.Blocks {
				for i := range blk.Insts {
					in := &blk.Insts[i]
					if in.Op != Phi {
						continue
					}
					for j := range in.Incomings {
						if in.Incomings[j].Pred == bLabel {
							in.Incomings[j].Pred = a.Label
						}
					}
				}
			}
			f.removeBlock(bLabel)
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

func (f *Func) removeBlock(label string) {
	for i, b := range f.Blocks {
		if b.Label == label {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// ---- MergeFunctions ----

// MergeStats reports what MergeFunctions did.
type MergeStats struct {
	Groups  int // sets of identical functions found
	Removed int // functions deleted
}

// MergeFunctions deduplicates structurally identical functions (LLVM's
// MergeFunctions pass — the 0.9% row of the paper's Table I): bodies that
// hash identically after value/label normalization are collapsed onto one
// representative and all call sites are rewritten.
func MergeFunctions(m *Module) MergeStats {
	return MergeFunctionsKeeping(m, nil)
}

// MergeFunctionsKeeping is MergeFunctions with external linkage: functions
// named in keep may be referenced from outside the module (the per-module
// pipeline merges before the system link), so they can serve as a group's
// representative but are never deleted — only call sites inside m see the
// rewrite, and deleting a kept function would leave other modules calling
// an undefined symbol.
func MergeFunctionsKeeping(m *Module, keep map[string]bool) MergeStats {
	byHash := make(map[string][]*Func)
	var keyer funcKeyer
	for _, f := range m.Funcs {
		if f.Name == "main" {
			continue
		}
		h := string(keyer.key(f))
		byHash[h] = append(byHash[h], f)
	}
	replace := make(map[string]string)
	var stats MergeStats
	hashes := make([]string, 0, len(byHash))
	for h := range byHash {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		group := byHash[h]
		if len(group) < 2 {
			continue
		}
		// A kept function is the preferred representative: the duplicates
		// merged into it then resolve to a symbol that survives the link.
		sort.Slice(group, func(i, j int) bool {
			if keep[group[i].Name] != keep[group[j].Name] {
				return keep[group[i].Name]
			}
			return group[i].Name < group[j].Name
		})
		rep := group[0]
		removed := 0
		for _, dup := range group[1:] {
			if keep[dup.Name] {
				continue
			}
			replace[dup.Name] = rep.Name
			removed++
		}
		if removed > 0 {
			stats.Groups++
			stats.Removed += removed
		}
	}
	if len(replace) == 0 {
		return stats
	}
	for name := range replace {
		m.RemoveFunc(name)
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Op == Call {
					if to, ok := replace[in.Sym]; ok {
						in.Sym = to
					}
				}
				if in.Op == GlobalAddr {
					if to, ok := replace[in.Sym]; ok {
						in.Sym = to
					}
				}
			}
		}
	}
	return stats
}

// funcKeyer builds MergeFunctions' normalized structural key: value numbers
// and labels renamed in traversal order, so two functions differing only in
// naming or value numbering get equal keys. Its buffers are reused from one
// function to the next.
type funcKeyer struct {
	eraseConsts bool // key every Const as immediate 0 (FMSA's shape key)

	buf  []byte
	vals []int // normalized id by value number; 0 = not yet seen
	next int   // ids handed out so far
	labs map[string]int
}

// key returns f's key. The bytes are valid until the next call.
func (k *funcKeyer) key(f *Func) []byte {
	k.vals = k.vals[:0]
	k.next = 0
	if k.labs == nil {
		k.labs = make(map[string]int)
	}
	clear(k.labs)
	b := append(k.buf[:0], 'p')
	b = strconv.AppendInt(b, int64(f.NumParams), 10)
	b = append(b, " t"...)
	b = strconv.AppendBool(b, f.Throws)
	b = append(b, ';')
	for i := 0; i < f.NumParams; i++ {
		k.val(f.Param(i))
	}
	for _, blk := range f.Blocks {
		b = append(b, 'L')
		b = strconv.AppendInt(b, int64(k.lab(blk.Label)), 10)
		b = append(b, ':')
		for i := range blk.Insts {
			in := &blk.Insts[i]
			imm := in.Imm
			if k.eraseConsts && in.Op == Const {
				imm = 0
			}
			b = strconv.AppendInt(b, int64(in.Op), 10)
			b = append(b, '(')
			for j, x := range [...]int64{int64(k.val(in.Dst)), int64(k.val(in.A)),
				int64(k.val(in.B)), int64(k.val(in.ErrDst)), imm, int64(in.BinOp), int64(in.Cond)} {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, x, 10)
			}
			switch in.Op {
			case Call, GlobalAddr:
				b = append(b, ",@"...)
				b = append(b, in.Sym...)
			case Br:
				b = append(b, ",L"...)
				b = strconv.AppendInt(b, int64(k.lab(in.Sym)), 10)
			case CondBr:
				b = append(b, ",L"...)
				b = strconv.AppendInt(b, int64(k.lab(in.Sym)), 10)
				b = append(b, ",L"...)
				b = strconv.AppendInt(b, int64(k.lab(in.Sym2)), 10)
			}
			for _, a := range in.Args {
				b = append(b, ",a"...)
				b = strconv.AppendInt(b, int64(k.val(a)), 10)
			}
			for _, inc := range in.Incomings {
				b = append(b, ",[L"...)
				b = strconv.AppendInt(b, int64(k.lab(inc.Pred)), 10)
				b = append(b, ':')
				b = strconv.AppendInt(b, int64(k.val(inc.Val)), 10)
				b = append(b, ']')
			}
			b = append(b, ");"...)
		}
	}
	k.buf = b
	return b
}

// val returns v's normalized id, numbering values in first-seen order.
func (k *funcKeyer) val(v Value) int {
	if v <= None {
		return 0
	}
	if int(v) >= len(k.vals) {
		k.vals = append(k.vals, make([]int, int(v)+1-len(k.vals))...)
	}
	if k.vals[v] == 0 {
		k.next++
		k.vals[v] = k.next
	}
	return k.vals[v]
}

// lab returns l's normalized id, numbering labels in first-seen order.
func (k *funcKeyer) lab(l string) int {
	id, ok := k.labs[l]
	if !ok {
		id = len(k.labs) + 1
		k.labs[l] = id
	}
	return id
}
