package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"outliner/internal/benchkit"
	"outliner/internal/cache"
	"outliner/internal/layout"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
)

// osizeConfig is the release configuration both osize workloads build: the
// paper's whole-program -Osize pipeline with the verifier on and c3 function
// layout driven by prof.
func osizeConfig(prof *profile.Profile) pipeline.Config {
	cfg := pipeline.OSize
	cfg.Verify = true
	cfg.Layout = layout.C3
	cfg.Profile = prof
	cfg.Parallelism = jobs
	return cfg
}

// osizeState is an osize workload after set-up.
type osizeState struct {
	prof *profile.Profile
	// primed holds cache directories one base build has filled (osize-edit):
	// one for the untraced builds, and in a traced run a second one for the
	// composed builds, so both see the same cache history.
	primed []string
}

func (st *osizeState) close() {
	for _, d := range st.primed {
		removeCacheDir(d)
	}
}

func removeCacheDir(dir string) {
	cache.Forget(dir)
	os.RemoveAll(dir)
}

// setupOSize collects the profile c3 layout uses — from a build without
// layout, executing every span and main, as a release pipeline collects it
// from the previous release — and primes `prime` cache directories with one
// base build each.
func (s *session) setupOSize(prime int) (*osizeState, error) {
	cfg := osizeConfig(nil)
	cfg.Layout = ""
	res, err := pipeline.Build(sources(s.corpus.mods), cfg)
	if err != nil {
		return nil, fmt.Errorf("profile build: %w", err)
	}
	prof, err := benchkit.ProfileEntries(res, benchkit.DefaultEntries(s.corpus.profile.Spans), 0, cfg)
	if err != nil {
		return nil, err
	}
	st := &osizeState{prof: prof}
	for i := 0; i < prime; i++ {
		dir, err := s.freshDir("primed")
		if err != nil {
			return nil, err
		}
		st.primed = append(st.primed, dir)
		pc := osizeConfig(prof)
		pc.CacheDir = dir
		if _, err := pipeline.Build(sources(s.corpus.mods), pc); err != nil {
			st.close()
			return nil, fmt.Errorf("priming build: %w", err)
		}
	}
	return st, nil
}

// osizePlan is what distinguishes the two osize workloads: which input step
// k builds, and which cache directory a build uses (slot 0 for pipeline
// builds, 1 for composed builds) and how it is released afterwards.
type osizePlan struct {
	next  func(k int) edit
	cache func(slot int) (dir string, release func(), err error)
}

// runOSizeCold is a CI/release build: every build starts from a brand-new
// cache directory, so the cache only writes.
func runOSizeCold(s *session) error {
	st, err := setUp(s, func() (*osizeState, error) { return s.setupOSize(0) }, (*osizeState).close)
	if err != nil {
		return err
	}
	defer st.close()
	return s.runOSize(osizeConfig(st.prof), osizePlan{
		next: func(int) edit { return edit{} },
		cache: func(int) (string, func(), error) {
			dir, err := s.freshDir("cold")
			return dir, func() { removeCacheDir(dir) }, err
		},
	})
}

// Shares of the osize-edit step kinds; the rest are body edits. They are
// assumptions, not measurements: no edit mix of a real project backs them.
// README.md reports how far the end-to-end metrics move when they change.
const (
	noChangeShare = 0.2
	ifaceShare    = 0.1
)

// runOSizeEdit is the developer inner loop on the whole-program pipeline:
// a primed cache, then a seeded sequence of one-module body edits,
// occasional interface edits that invalidate every importer, and no-change
// rebuilds. Step 0 is always a no-change rebuild, so every run reports the
// base image.
func runOSizeEdit(s *session) error {
	prime := 1
	if s.opts.trace {
		prime = 2
	}
	st, err := setUp(s, func() (*osizeState, error) { return s.setupOSize(prime) }, (*osizeState).close)
	if err != nil {
		return err
	}
	defer st.close()
	rng := rand.New(rand.NewSource(s.opts.seed))
	var steps []edit
	next := func(k int) edit {
		for len(steps) <= k {
			i := len(steps)
			r := rng.Float64()
			mod := s.corpus.mods[rng.Intn(len(s.corpus.mods))].Name
			switch {
			case i == 0 || r < noChangeShare:
				steps = append(steps, edit{})
			case r < noChangeShare+ifaceShare:
				steps = append(steps, edit{kind: ifaceEdit, module: mod, tag: fmt.Sprintf("e%d", i)})
			default:
				steps = append(steps, edit{kind: bodyEdit, module: mod, tag: fmt.Sprintf("e%d", i)})
			}
		}
		return steps[k]
	}
	return s.runOSize(osizeConfig(st.prof), osizePlan{
		next:  next,
		cache: func(slot int) (string, func(), error) { return st.primed[slot], func() {}, nil },
	})
}

// runOSize is the closed loop of both osize workloads: one client building
// step after step until the window closes (at least one step). An untraced
// run times pipeline.Build; a traced run alternates a composed build and a
// pipeline build of every step, in alternating order.
func (s *session) runOSize(cfg pipeline.Config, plan osizePlan) error {
	var (
		builds  []build
		samples []layerSample
		u       usage
	)
	deadline := time.Now().Add(s.window())
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		e := plan.next(k)
		srcs := sources(e.apply(s.corpus.mods))
		if !s.opts.trace {
			b, err := s.pipelineBuild(srcs, cfg, e.input(), plan, &u)
			if err != nil {
				return err
			}
			builds = append(builds, b)
			continue
		}
		for i := 0; i < 2; i++ {
			if (k+i)%2 == 0 {
				b, sample, err := s.composedStep(srcs, cfg, e.input(), plan)
				if err != nil {
					return err
				}
				builds = append(builds, b)
				if sample != nil {
					samples = append(samples, sample)
				}
			} else {
				b, err := s.pipelineBuild(srcs, cfg, e.input(), plan, &usage{})
				if err != nil {
					return err
				}
				builds = append(builds, b)
			}
		}
	}
	first := s.judge("osize", builds)
	base := first["base"]
	if !s.opts.trace {
		for _, b := range builds {
			u.busy += b.wall
			if b.err != nil {
				u.lat = append(u.lat, math.Inf(1))
			} else {
				u.lat = append(u.lat, ms(b.wall))
			}
		}
		s.endToEnd(u, base)
		return nil
	}
	var untraced []float64
	for _, b := range builds {
		if !b.composed && b.err == nil {
			untraced = append(untraced, ms(b.wall))
		}
	}
	s.perLayer(samples, s.images.runs[base.Digest])
	s.set("trace.overhead_ms", s.metrics["trace.wall_ms"].Value-mean(untraced), "ms")
	s.printf("trace: untraced mean %.2f ms, overhead %.2f ms", mean(untraced), s.metrics["trace.overhead_ms"].Value)
	return nil
}

// pipelineBuild times one pipeline.Build of srcs, starting from a collected
// heap whose free memory has gone back to the kernel, and adds the build's
// CPU time, allocation and peak resident set to u.
func (s *session) pipelineBuild(srcs []pipeline.Source, cfg pipeline.Config, input string, plan osizePlan, u *usage) (build, error) {
	dir, release, err := plan.cache(0)
	if err != nil {
		return build{}, err
	}
	defer release()
	cfg.CacheDir = dir
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	res, berr := pipeline.Build(srcs, cfg)
	wall := time.Since(start)
	u.cpu += cpuTime() - cpu
	runtime.ReadMemStats(&after)
	u.alloc += after.TotalAlloc - before.TotalAlloc
	u.rss = append(u.rss, peakRSSMB())
	return s.finishBuild(build{input: input, wall: wall, err: berr}, res), nil
}

// composedStep runs one composed build of srcs, starting from the same
// heap state as pipelineBuild.
func (s *session) composedStep(srcs []pipeline.Source, cfg pipeline.Config, input string, plan osizePlan) (build, layerSample, error) {
	dir, release, err := plan.cache(1)
	if err != nil {
		return build{}, nil, err
	}
	defer release()
	cfg.CacheDir = dir
	debug.FreeOSMemory()
	start := time.Now()
	res, sample, berr := composedBuild(srcs, cfg)
	wall := time.Since(start)
	return s.finishBuild(build{input: input, composed: true, wall: wall, err: berr}, res), sample, nil
}

// finishBuild digests a successful build's listing and executes its image
// if no earlier build produced it. Executing it here, outside the build's
// timing, means no program outlives its build to inflate the next build's
// resident set.
func (s *session) finishBuild(b build, res *pipeline.Result) build {
	if b.err != nil {
		return b
	}
	b.digest, b.err = listingDigest(res)
	if b.err != nil {
		return b
	}
	b.code, b.binary = res.CodeSize(), res.BinarySize()
	s.images.run(b.digest, res.Prog)
	return b
}
