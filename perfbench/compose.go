package main

import (
	"errors"
	"fmt"
	"time"

	"outliner/internal/binimg"
	"outliner/internal/codegen"
	"outliner/internal/frontend"
	"outliner/internal/irlink"
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/par"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/verify"
)

// layerSample is one composed build's per-layer values, keyed by per-layer
// metric name.
type layerSample map[string]float64

// composedBuild rebuilds srcs under cfg by calling each layer's public
// functions in the order pipeline.Build calls them, timing every call from
// here. It covers the whole-program configuration the osize workloads build;
// the caller checks that its listing is byte-identical to pipeline.Build's.
// The cache layer reports through a full obs.Tracer (its hit, byte,
// lowering and key-hashing counters exist nowhere else); every other layer
// runs without one, as in an untraced build.
func composedBuild(srcs []pipeline.Source, cfg pipeline.Config) (*pipeline.Result, layerSample, error) {
	if !cfg.WholeProgram || cfg.CanonicalizeSequences || cfg.LayoutOutlined || cfg.Fault != nil {
		return nil, nil, errors.New("composedBuild covers the whole-program pipeline without extensions or fault injection")
	}
	tr := obs.New()
	cfg.Tracer = tr
	p := cfg.Parallelism
	start := time.Now()
	var (
		parsed  [][]*frontend.File
		imports []*frontend.Imports
		bc      *pipeline.BuildCache
		keys    *pipeline.ModuleKeys
		mods    []*llir.Module
		merged  *llir.Module
		prog    *mir.Program
		ost     *outline.Stats
		lst     *layout.Stats
		pre     *binimg.Image
		img     *binimg.Image
		sample  = layerSample{}
	)
	steps := []struct {
		layer string
		run   func() error
	}{
		{"frontend.parse", func() (err error) {
			parsed, err = par.MapLanes(p, len(srcs), func(_, i int) ([]*frontend.File, error) {
				return pipeline.ParseSource(srcs[i])
			})
			if err != nil {
				return err
			}
			ix := frontend.NewImportsIndex(parsed...)
			imports = make([]*frontend.Imports, len(srcs))
			for i := range srcs {
				imports[i] = ix.For(i)
			}
			return nil
		}},
		{"cache.key", func() error {
			keys = pipeline.ComputeModuleKeys(srcs, parsed, tr)
			return nil
		}},
		{"frontend.lower", func() (err error) {
			mods, err = par.MapLanes(p, len(srcs), func(lane, i int) (*llir.Module, error) {
				return bc.CompileToLLIRCached(srcs[i], cfg, imports[i], i, keys, lane+1)
			})
			return err
		}},
		{"irlink.link", func() (err error) {
			merged, err = irlink.Link(mods, irlink.Options{
				SplitGCMetadata:     cfg.SplitGCMetadata,
				PreserveModuleOrder: cfg.PreserveDataLayout,
			})
			return err
		}},
		{"llir.merge", func() error {
			if cfg.MergeFunctions {
				llir.MergeFunctions(merged)
			}
			if cfg.FMSA {
				llir.MergeBySequenceAlignment(merged)
			}
			return nil
		}},
		{"llir.simplify", func() error {
			par.DoStage("opt", p, len(merged.Funcs), func(i int) {
				llir.SimplifyCFG(merged.Funcs[i])
				llir.DCE(merged.Funcs[i])
			})
			return nil
		}},
		{"llir.verify", func() error {
			if !cfg.Verify {
				return nil
			}
			return merged.Verify()
		}},
		{"codegen.compile", func() (err error) {
			prog, err = codegen.CompileTraced(merged, p, nil, 1, nil)
			return err
		}},
		{"verify.program", func() error { return verifyProgram(prog, cfg) }},
		{"outline.outline", func() (err error) {
			if cfg.OutlineRounds == 0 {
				return nil
			}
			ost, err = outline.Outline(prog, outline.Options{
				Rounds:          cfg.OutlineRounds,
				FlatCostModel:   cfg.FlatOutlineCost,
				Verify:          cfg.Verify,
				ExternSyms:      llir.RuntimeSyms,
				Parallelism:     p,
				OnVerifyFailure: cfg.OnVerifyFailure,
				Profile:         cfg.Profile,
				ColdOnly:        cfg.OutlineColdOnly,
				ColdThreshold:   cfg.OutlineColdThreshold,
			})
			return err
		}},
		{"binimg.build", func() error {
			if cfg.Layout != "" && cfg.Layout != layout.None && cfg.Profile != nil {
				pre = binimg.Build(prog) // the layout report's "before" image
			}
			return nil
		}},
		{"layout.apply", func() (err error) {
			if cfg.Layout != "" {
				lst, err = layout.Apply(prog, layout.Options{Policy: cfg.Layout, Profile: cfg.Profile})
			}
			return err
		}},
		{"verify.program", func() error { return verifyProgram(prog, cfg) }},
		{"binimg.build", func() error { img = binimg.Build(prog); return nil }},
		{"verify.image", func() error {
			if !cfg.Verify {
				return nil
			}
			return verify.Image(img, prog).Err()
		}},
		{"perf.pagetouch", func() error {
			if pre == nil {
				return nil
			}
			dev := perf.Device{PageSize: binimg.PageSize}
			perf.PageTouch(pre, cfg.Profile, dev)
			after := perf.PageTouch(img, cfg.Profile, dev)
			sample["layout.cross_page_ratio"] = after.CrossRatio()
			sample["layout.touched_pages"] = float64(after.TouchedPages)
			return nil
		}},
	}
	// Opening the cache is not a layer call of its own; its time is glue.
	bc, err := pipeline.OpenBuildCache(cfg)
	if err != nil {
		return nil, nil, err
	}
	var lowerKeyNS int64 // key hashing inside CompileToLLIRCached
	for _, st := range steps {
		keyNS := tr.Counters()["cache/key_hash_ns"]
		t0 := time.Now()
		err := st.run()
		sample[st.layer+"_ms"] += ms(time.Since(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", st.layer, err)
		}
		switch st.layer {
		case "frontend.lower":
			lowerKeyNS = tr.Counters()["cache/key_hash_ns"] - keyNS
		case "llir.verify":
			sample["llir.insts_after_opt"] = float64(merged.NumInsts())
		case "codegen.compile":
			sample["codegen.insts"] = float64(prog.NumInsts())
		}
	}
	wall := ms(time.Since(start))
	c := tr.Counters()
	// cache.key_ms is all key hashing, as the program counts it and as the
	// farm reports it: ComputeModuleKeys plus the per-module keys
	// CompileToLLIRCached derives, summed over the lowering lanes. The latter
	// leaves frontend.lower_ms, so the layer times still add up to
	// trace.wall_ms with trace.glue_ms.
	sample["cache.key_ms"] = float64(c["cache/key_hash_ns"]) / 1e6
	sample["frontend.lower_ms"] -= float64(lowerKeyNS) / 1e6
	layers := 0.0
	counted := map[string]bool{} // verify.program and binimg.build run twice
	for _, st := range steps {
		if !counted[st.layer] {
			counted[st.layer] = true
			layers += sample[st.layer+"_ms"]
		}
	}
	sample["trace.wall_ms"] = wall
	sample["trace.glue_ms"] = wall - layers

	hits, misses := float64(c["cache/llir/hits"]), float64(c["cache/llir/misses"])
	sample["frontend.modules_lowered"] = misses
	if hits+misses > 0 {
		sample["cache.llir_hit_ratio"] = hits / (hits + misses)
	}
	sample["cache.bytes_read"] = float64(c["cache/bytes_read"])
	sample["cache.bytes_written"] = float64(c["cache/bytes_written"])
	if ost != nil {
		for i, r := range ost.Rounds {
			if i < 5 {
				sample[fmt.Sprintf("outline.bytes_saved_r%d", i+1)] = float64(r.BytesSaved)
			}
		}
		sample["outline.sequences"] = float64(ost.TotalSequences())
		sample["outline.functions_created"] = float64(ost.TotalFunctions())
	}
	res := &pipeline.Result{Prog: prog, Image: img, Outline: ost, Layout: lst, PreLayoutImage: pre}
	return res, sample, nil
}

// verifyProgram is the pipeline's machine-verifier step over the whole
// program, with the runtime entry points as the only external symbols.
func verifyProgram(prog *mir.Program, cfg pipeline.Config) error {
	if !cfg.Verify {
		return nil
	}
	return verify.Program(prog, llir.RuntimeSyms).Err()
}
