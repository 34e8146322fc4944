package main

import (
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"outliner/internal/appgen"
	"outliner/internal/difftest"
	"outliner/internal/exec"
	"outliner/internal/pipeline"
)

const (
	// defaultSeed is appgen.UberRider's own seed.
	defaultSeed = 20170301
	// heldOutSeed is the seed a claimed gain must also hold on. It is never
	// used while a change is written; its expected output is committed so a
	// run on it checks against a file, like the default seed.
	heldOutSeed = 20210227
	// defaultModules is the corpus size: about a tenth of the paper's app,
	// so one OSize build takes well under a second at -j2.
	defaultModules = 48
)

const (
	// sizeTolerance is how far a corpus's source size may lie from the
	// target size.
	sizeTolerance = 0.01
	// sizeReferenceSeeds is how many fixed seeds (1, 2, ...) set the target
	// size: the median of their apps' sizes.
	sizeReferenceSeeds = 9
	// maxCandidates bounds the search; the closest candidate wins if none
	// lands within sizeTolerance.
	maxCandidates = 64
)

// corpus is one seeded UberRider app: the only input the compiler receives.
type corpus struct {
	profile appgen.Profile
	mods    []appgen.Module
	lines   int
	bytes   int
}

func generate(seed int64, modules int) corpus {
	p := appgen.UberRider
	p.Seed = seed
	mods := appgen.Generate(p, appgen.ScaleForModules(p, modules))
	c := corpus{profile: p, mods: mods, lines: appgen.LineCount(mods)}
	for _, m := range mods {
		for _, text := range m.Files {
			c.bytes += len(text)
		}
	}
	return c
}

// newCorpus returns the seed's corpus: the first of the seed's candidate
// apps whose source size lies within sizeTolerance of the median size of
// the apps the reference seeds generate at the same module count. Source
// size drives every build metric (code size, build time, memory), and at 48
// modules it varies by about 4% from seed to seed; holding it fixed keeps
// runs on different seeds comparable while the seed still picks the
// program.
func newCorpus(seed int64, modules int) corpus {
	sizes := make([]float64, sizeReferenceSeeds)
	for i := range sizes {
		sizes[i] = float64(generate(int64(i+1), modules).bytes)
	}
	target := median(sizes)
	var best corpus
	bestDev := math.Inf(1)
	for i := int64(0); i < maxCandidates; i++ {
		c := generate(candidateSeed(seed, i), modules)
		dev := math.Abs(float64(c.bytes)-target) / target
		if dev <= sizeTolerance {
			return c
		}
		if dev < bestDev {
			best, bestDev = c, dev
		}
	}
	return best
}

// candidateSeed is the appgen seed of the seed's i-th candidate app: the
// seed itself, then a splitmix64 hash of (seed, i), so that neighbouring
// seeds draw unrelated candidates.
func candidateSeed(seed, i int64) int64 {
	if i == 0 {
		return seed
	}
	x := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

// sources converts generated modules to the pipeline's source form, the
// same form slc and slcd build from.
func sources(mods []appgen.Module) []pipeline.Source {
	out := make([]pipeline.Source, len(mods))
	for i, m := range mods {
		out[i] = pipeline.Source{Name: m.Name, Files: m.Files}
	}
	return out
}

// Edit kinds.
const (
	noEdit    = iota // rebuild the base corpus unchanged
	bodyEdit         // appgen.EditBody: a comment appended to one module
	ifaceEdit        // appgen.EditInterface: one module gains an exported function
)

// edit is one developer change to the base corpus. Edits never accumulate:
// each applies to the base corpus.
type edit struct {
	kind   int
	module string
	tag    string
}

func (e edit) apply(mods []appgen.Module) []appgen.Module {
	switch e.kind {
	case bodyEdit:
		return appgen.EditBody(mods, e.module, e.tag)
	case ifaceEdit:
		return appgen.EditInterface(mods, e.module, e.tag)
	}
	return mods
}

// input names the program an edit produces, the unit the determinism gate
// compares builds by. A body edit only appends a comment, so it is the base
// program and must build to the base image.
func (e edit) input() string {
	if e.kind == ifaceEdit {
		return "iface " + e.module + " " + e.tag
	}
	return "base"
}

//go:embed expected/*.out
var expectedFiles embed.FS

func expectedName(seed int64, modules int) string {
	return fmt.Sprintf("expected/seed%d-m%d.out", seed, modules)
}

// reference returns the output main must print for c and where it came
// from: the committed file for the default and held-out seeds, otherwise a
// baseline build.
func reference(opts options, c corpus) (out, source string, err error) {
	name := expectedName(opts.seed, opts.modules)
	if data, err := expectedFiles.ReadFile(name); err == nil {
		return string(data), "committed perfbench/" + name, nil
	}
	out, err = baselineOutput(c)
	return out, "a baseline build made before set-up (no committed expected output for this seed and size)", err
}

// baselineOutput builds c at difftest's reference point — the per-module
// pipeline with no outlining, merging or layout, verifier on — and returns
// what its main prints.
func baselineOutput(c corpus) (string, error) {
	pt, ok := difftest.PointNamed("baseline")
	if !ok {
		return "", fmt.Errorf("difftest has no baseline point")
	}
	cfg := pt.Config
	cfg.Parallelism = jobs
	res, err := pipeline.Build(sources(c.mods), cfg)
	if err != nil {
		return "", fmt.Errorf("baseline build: %w", err)
	}
	m, err := exec.New(res.Prog, exec.Options{})
	if err != nil {
		return "", err
	}
	out, err := m.Run("main")
	if err != nil {
		return "", fmt.Errorf("baseline run: %w", err)
	}
	return out, nil
}

// writeExpectedOutput commits main's expected output for one seed and size.
func writeExpectedOutput(opts options) error {
	out, err := baselineOutput(newCorpus(opts.seed, opts.modules))
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", expectedName(opts.seed, opts.modules))
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
