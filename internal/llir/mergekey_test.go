package llir_test

import (
	"fmt"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/irlink"
	"outliner/internal/llir"
	"outliner/internal/pipeline"
)

// refHashFunc is the fmt-based merge key MergeFunctions used before it
// built keys with strconv: the oracle the current key must agree with.
func refHashFunc(f *llir.Func) string {
	var sb strings.Builder
	valNames := make(map[llir.Value]int)
	valName := func(v llir.Value) int {
		if v == llir.None {
			return 0
		}
		id, ok := valNames[v]
		if !ok {
			id = len(valNames) + 1
			valNames[v] = id
		}
		return id
	}
	labNames := make(map[string]int)
	labName := func(l string) int {
		id, ok := labNames[l]
		if !ok {
			id = len(labNames) + 1
			labNames[l] = id
		}
		return id
	}
	fmt.Fprintf(&sb, "p%d t%v;", f.NumParams, f.Throws)
	for i := 0; i < f.NumParams; i++ {
		valName(f.Param(i))
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "L%d:", labName(b.Label))
		for i := range b.Insts {
			in := &b.Insts[i]
			fmt.Fprintf(&sb, "%d(%d,%d,%d,%d,%d,%d,%d", in.Op, valName(in.Dst),
				valName(in.A), valName(in.B), valName(in.ErrDst), in.Imm, in.BinOp, in.Cond)
			switch in.Op {
			case llir.Call, llir.GlobalAddr:
				fmt.Fprintf(&sb, ",@%s", in.Sym)
			case llir.Br:
				fmt.Fprintf(&sb, ",L%d", labName(in.Sym))
			case llir.CondBr:
				fmt.Fprintf(&sb, ",L%d,L%d", labName(in.Sym), labName(in.Sym2))
			}
			for _, a := range in.Args {
				fmt.Fprintf(&sb, ",a%d", valName(a))
			}
			for _, inc := range in.Incomings {
				fmt.Fprintf(&sb, ",[L%d:%d]", labName(inc.Pred), valName(inc.Val))
			}
			sb.WriteString(");")
		}
	}
	return sb.String()
}

// refShapeKey is FMSA's shape key as it was: refHashFunc of a copy with
// every Const immediate zeroed.
func refShapeKey(f *llir.Func) string {
	c := *f
	c.Blocks = nil
	for _, b := range f.Blocks {
		nb := &llir.Block{Label: b.Label, Insts: append([]llir.Inst(nil), b.Insts...)}
		for i := range nb.Insts {
			if nb.Insts[i].Op == llir.Const {
				nb.Insts[i].Imm = 0
			}
		}
		c.Blocks = append(c.Blocks, nb)
	}
	return refHashFunc(&c)
}

// partition maps each function's name to the name of the first function
// with the same key.
func partition(funcs []*llir.Func, key func(*llir.Func) string) map[string]string {
	first := make(map[string]string)
	out := make(map[string]string, len(funcs))
	for _, f := range funcs {
		k := key(f)
		if _, ok := first[k]; !ok {
			first[k] = f.Name
		}
		out[f.Name] = first[k]
	}
	return out
}

func samePartition(t *testing.T, what string, funcs []*llir.Func, got, want func(*llir.Func) string) map[string]string {
	t.Helper()
	g, w := partition(funcs, got), partition(funcs, want)
	for _, f := range funcs {
		if g[f.Name] != w[f.Name] {
			t.Errorf("%s: @%s groups with @%s, reference groups it with @%s", what, f.Name, g[f.Name], w[f.Name])
		}
	}
	return g
}

// linkedApp links the per-module LLIR of an n-module UberRider app into one
// module, as the whole-program pipeline does before its opt stage.
func linkedApp(tb testing.TB, n int) *llir.Module {
	tb.Helper()
	p := appgen.UberRider
	lms, err := appgen.CompileModules(appgen.Generate(p, appgen.ScaleForModules(p, n)), pipeline.OSize)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := irlink.Link(lms, irlink.Options{SplitGCMetadata: true, PreserveModuleOrder: true})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestMergeKeyMatchesReferenceOnApp(t *testing.T) {
	m := linkedApp(t, 12)
	groups := samePartition(t, "merge key", m.Funcs, llir.NewKeyer(false), refHashFunc)
	samePartition(t, "shape key", m.Funcs, llir.NewKeyer(true), refShapeKey)
	merged := 0
	for name, rep := range groups {
		if name != rep {
			merged++
		}
	}
	if merged == 0 {
		t.Fatal("the app has no mergeable functions; the test checks nothing")
	}
}

func TestMergeKeyEdgeCases(t *testing.T) {
	blk := func(label string, insts ...llir.Inst) *llir.Block {
		return &llir.Block{Label: label, Insts: insts}
	}
	fn := func(name string, throws bool, blocks ...*llir.Block) *llir.Func {
		return &llir.Func{Name: name, NumParams: 1, Throws: throws, Blocks: blocks, NumValues: 9}
	}
	ret := func(v llir.Value) llir.Inst { return llir.Inst{Op: llir.Ret, A: v} }
	call := func(dst llir.Value, sym string) llir.Inst {
		return llir.Inst{Op: llir.Call, Dst: dst, Sym: sym, Args: []llir.Value{1}}
	}
	phi := func(preds ...string) *llir.Block {
		inc := make([]llir.Incoming, len(preds))
		for i, p := range preds {
			inc[i] = llir.Incoming{Pred: p, Val: 1}
		}
		return blk("j", llir.Inst{Op: llir.Phi, Dst: 2, Incomings: inc}, ret(2))
	}
	diamond := func(name string, preds ...string) *llir.Func {
		return fn(name, false,
			blk("e", llir.Inst{Op: llir.CondBr, A: 1, Sym: "a", Sym2: "b"}),
			blk("a", llir.Inst{Op: llir.Br, Sym: "j"}),
			blk("b", llir.Inst{Op: llir.Br, Sym: "j"}),
			phi(preds...))
	}
	funcs := []*llir.Func{
		fn("callA", false, blk("entry", call(2, "a"), ret(2))),
		fn("callARenamed", false, blk("start", call(7, "a"), ret(7))),
		fn("callB", false, blk("entry", call(2, "b"), ret(2))),
		fn("callAThrows", true, blk("entry", call(2, "a"), ret(2))),
		fn("br", false, blk("e", llir.Inst{Op: llir.Br, Sym: "x"}), blk("x", ret(1))),
		fn("condbr", false, blk("e", llir.Inst{Op: llir.CondBr, A: 1, Sym: "x", Sym2: "x"}), blk("x", ret(1))),
		fn("condbrSwapped", false,
			blk("e", llir.Inst{Op: llir.CondBr, A: 1, Sym: "y", Sym2: "x"}), blk("x", ret(1)), blk("y", ret(1))),
		fn("condbrOrdered", false,
			blk("e", llir.Inst{Op: llir.CondBr, A: 1, Sym: "x", Sym2: "y"}), blk("x", ret(1)), blk("y", ret(1))),
		diamond("phiAB", "a", "b"),
		diamond("phiABCopy", "a", "b"),
		diamond("phiBA", "b", "a"),
	}
	groups := samePartition(t, "merge key", funcs, llir.NewKeyer(false), refHashFunc)
	samePartition(t, "shape key", funcs, llir.NewKeyer(true), refShapeKey)
	for _, c := range []struct {
		a, b string
		same bool
	}{
		{"callA", "callARenamed", true},
		{"callA", "callB", false},
		{"callA", "callAThrows", false},
		{"br", "condbr", false},
		{"condbrSwapped", "condbrOrdered", false},
		{"phiAB", "phiABCopy", true},
		{"phiAB", "phiBA", false},
	} {
		if got := groups[c.a] == groups[c.b]; got != c.same {
			t.Errorf("@%s and @%s share a key = %v, want %v", c.a, c.b, got, c.same)
		}
	}
}

// copyModule copies m deeply enough for MergeFunctions, which deletes
// functions and rewrites call and address symbols in place.
func copyModule(m *llir.Module) *llir.Module {
	out := llir.NewModule(m.Name)
	for _, f := range m.Funcs {
		nf := *f
		nf.Blocks = make([]*llir.Block, len(f.Blocks))
		for i, b := range f.Blocks {
			nf.Blocks[i] = &llir.Block{Label: b.Label, Insts: append([]llir.Inst(nil), b.Insts...)}
		}
		out.AddFunc(&nf)
	}
	out.Globals = m.Globals
	return out
}

// BenchmarkMergeFunctions times whole-program function merging over a
// linked 12-module app.
func BenchmarkMergeFunctions(b *testing.B) {
	m := linkedApp(b, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := copyModule(m)
		b.StartTimer()
		llir.MergeFunctions(c)
	}
}
