package codegen_test

import (
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/codegen"
	"outliner/internal/irlink"
	"outliner/internal/llir"
	"outliner/internal/pipeline"
)

// BenchmarkCompile times serial code generation (isel, out-of-SSA, register
// allocation, emission) of a linked and optimized 12-module app.
func BenchmarkCompile(b *testing.B) {
	p := appgen.UberRider
	lms, err := appgen.CompileModules(appgen.Generate(p, appgen.ScaleForModules(p, 12)), pipeline.OSize)
	if err != nil {
		b.Fatal(err)
	}
	m, err := irlink.Link(lms, irlink.Options{SplitGCMetadata: true, PreserveModuleOrder: true})
	if err != nil {
		b.Fatal(err)
	}
	llir.RunDefaultPasses(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.CompileWith(m, 1); err != nil {
			b.Fatal(err)
		}
	}
}
