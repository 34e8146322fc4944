// Package codegen lowers LLIR to machine code (internal/mir): the llc analog.
//
// The stages reproduce the parts of an AArch64 backend that the paper's
// analysis identifies as pattern factories:
//
//   - out-of-SSA translation (phi elimination with critical-edge splitting
//     and parallel-copy sequentialization) — the source of the copy/spill
//     blow-up of §IV-4 and Listing 11,
//   - instruction selection with calling-convention materialization — the
//     ORRXrs argument moves of Listings 1-6,
//   - linear-scan register allocation with callee-saved preferences and
//     spill code,
//   - prologue/epilogue insertion with STP/LDP pairs — Listings 7-8.
package codegen

import (
	"fmt"

	"outliner/internal/fault"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/par"
)

// Compile lowers every function of an LLIR module and returns a machine
// program (functions keep their source-module provenance; globals carry
// over). It uses one worker per CPU; see CompileWith for the knob.
func Compile(m *llir.Module) (*mir.Program, error) { return CompileWith(m, 0) }

// CompileWith is Compile with an explicit worker bound (0 = one per CPU,
// 1 = serial). Functions lower independently (ISel → out-of-SSA → regalloc
// read only their own cloned function), and the results are appended in
// module order, so the machine program is identical for any worker count.
func CompileWith(m *llir.Module, parallelism int) (*mir.Program, error) {
	return CompileTraced(m, parallelism, nil, 0, nil)
}

// CompileTraced is CompileWith with telemetry and fault injection: the
// functions-compiled counter, and (when the tracer collects fine spans) one
// span per function on trace lane baseLane+worker. The caller picks baseLane
// so spans land on the track of whichever pool is running: the whole-program
// pipeline passes 1 (its codegen workers are lanes 1..p), the default
// pipeline's per-module workers pass their own lane (their inner codegen is
// serial). inj (nil to disable) arms a per-function CodegenFunc panic point,
// keyed by function name; the worker pool recovers it into a structured
// *par.PanicError.
func CompileTraced(m *llir.Module, parallelism int, tr *obs.Tracer, baseLane int, inj *fault.Injector) (*mir.Program, error) {
	funcs, err := par.MapLanesStage("llc", parallelism, len(m.Funcs), func(lane, i int) (*mir.Function, error) {
		inj.MaybePanic(fault.CodegenFunc, m.Funcs[i].Name)
		sp := tr.StartFine("codegen @"+m.Funcs[i].Name, baseLane+lane)
		mf, err := compileFunc(m.Funcs[i])
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("codegen: @%s: %w", m.Funcs[i].Name, err)
		}
		return mf, nil
	})
	tr.Add("codegen/functions", int64(len(m.Funcs)))
	if err != nil {
		return nil, err
	}
	prog := mir.NewProgram()
	for _, mf := range funcs {
		prog.AddFunc(mf)
	}
	for _, g := range m.Globals {
		words := append([]int64(nil), g.Words...)
		prog.AddGlobal(&mir.Global{Name: g.Name, Module: g.Module, Words: words})
	}
	return prog, nil
}

func compileFunc(f *llir.Func) (*mir.Function, error) {
	// Work on a shallow clone so out-of-SSA edits do not mutate the LLIR
	// module (pipelines compile the same module with several configs).
	work := cloneFunc(f)
	outOfSSA(work)
	vblocks, err := selectInstructions(work)
	if err != nil {
		return nil, err
	}
	return emit(work, vblocks, allocateRegisters(vblocks)), nil
}

func cloneFunc(f *llir.Func) *llir.Func {
	nf := &llir.Func{
		Name:      f.Name,
		Module:    f.Module,
		NumParams: f.NumParams,
		Throws:    f.Throws,
		NumValues: f.NumValues,
	}
	for _, b := range f.Blocks {
		nb := &llir.Block{Label: b.Label, Insts: make([]llir.Inst, len(b.Insts))}
		copy(nb.Insts, b.Insts)
		for i := range nb.Insts {
			nb.Insts[i].Args = append([]llir.Value(nil), b.Insts[i].Args...)
			nb.Insts[i].Incomings = append([]llir.Incoming(nil), b.Insts[i].Incomings...)
		}
		nf.Blocks = append(nf.Blocks, nb)
	}
	return nf
}

// Copy is the post-SSA parallel-copy pseudo-instruction: Dst = A. It reuses
// llir.Inst storage with a dedicated opcode outside the SSA op set.
const opCopy llir.Op = llir.NumOps + 1

// outOfSSA eliminates phis: critical edges are split, then each phi becomes
// copies in the predecessors. Copies on one edge form a parallel copy and
// are sequentialized with a temporary when they form a cycle.
func outOfSSA(f *llir.Func) {
	splitCriticalEdges(f)

	// Gather copies per predecessor edge: pred label -> [dst, src].
	type copyOp struct{ dst, src llir.Value }
	edgeCopies := make(map[string][]copyOp)
	for _, b := range f.Blocks {
		kept := b.Insts[:0]
		for _, in := range b.Insts {
			if in.Op != llir.Phi {
				kept = append(kept, in)
				continue
			}
			for _, inc := range in.Incomings {
				edgeCopies[inc.Pred] = append(edgeCopies[inc.Pred], copyOp{dst: in.Dst, src: inc.Val})
			}
		}
		b.Insts = kept
	}
	if len(edgeCopies) == 0 {
		return
	}
	for _, b := range f.Blocks {
		copies, ok := edgeCopies[b.Label]
		if !ok {
			continue
		}
		// Sequentialize the parallel copy. Emit copies whose destination is
		// not a pending source; break cycles with a fresh temporary.
		var seq []llir.Inst
		pending := append([]copyOp(nil), copies...)
		for len(pending) > 0 {
			progress := false
			for i, c := range pending {
				dstIsSource := false
				for j, o := range pending {
					if j != i && o.src == c.dst {
						dstIsSource = true
						break
					}
				}
				if !dstIsSource {
					if c.dst != c.src {
						seq = append(seq, llir.Inst{Op: opCopy, Dst: c.dst, A: c.src})
					}
					pending = append(pending[:i], pending[i+1:]...)
					progress = true
					break
				}
			}
			if !progress {
				// Cycle: rotate through a temp.
				tmp := f.NewValue()
				c := pending[0]
				seq = append(seq, llir.Inst{Op: opCopy, Dst: tmp, A: c.src})
				// Redirect the source to the temp and retry.
				for j := range pending {
					if pending[j].src == c.src {
						pending[j].src = tmp
					}
				}
			}
		}
		// Insert before the terminator.
		term := b.Insts[len(b.Insts)-1]
		b.Insts = append(b.Insts[:len(b.Insts)-1], append(seq, term)...)
	}
}

// splitCriticalEdges inserts a forwarding block on every edge whose source
// has multiple successors and whose target has multiple predecessors (and
// carries phis).
func splitCriticalEdges(f *llir.Func) {
	preds := f.Preds()
	hasPhis := make(map[string]bool)
	for _, b := range f.Blocks {
		if len(b.Insts) > 0 && b.Insts[0].Op == llir.Phi {
			hasPhis[b.Label] = true
		}
	}
	seq := 0
	var newBlocks []*llir.Block
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != llir.CondBr {
			continue
		}
		split := func(target string) string {
			if !hasPhis[target] || len(preds[target]) < 2 {
				return target
			}
			seq++
			label := fmt.Sprintf("%s.crit%d", b.Label, seq)
			nb := &llir.Block{Label: label, Insts: []llir.Inst{{Op: llir.Br, Sym: target}}}
			newBlocks = append(newBlocks, nb)
			// Retarget the phi incomings naming b to the new block.
			for _, blk := range f.Blocks {
				if blk.Label != target {
					continue
				}
				for i := range blk.Insts {
					in := &blk.Insts[i]
					if in.Op != llir.Phi {
						break
					}
					for j := range in.Incomings {
						if in.Incomings[j].Pred == b.Label {
							in.Incomings[j].Pred = label
						}
					}
				}
			}
			return label
		}
		if t.Sym != t.Sym2 {
			t.Sym = split(t.Sym)
			t.Sym2 = split(t.Sym2)
		}
	}
	f.Blocks = append(f.Blocks, newBlocks...)
}
