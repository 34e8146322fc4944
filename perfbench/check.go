package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"outliner/internal/exec"
	"outliner/internal/mir"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
)

// The fixed device and OS app_cycles and app_page_faults are simulated on:
// the smallest caches and TLB in perf.Devices, where code size and layout
// show most, and the OS model without scheduling overhead.
var (
	simDevice = perf.Devices[0]
	simOS     = perf.OSes[2]
)

// build is one attempted build as a measuring loop saw it.
type build struct {
	input    string // the program built (edit.input)
	composed bool   // built by composedBuild rather than the pipeline
	wall     time.Duration
	err      error
	digest   string // sha256 of the image listing
	code     int
	binary   int
}

// facts are the deterministic properties of one input's image. Every build
// of the input, in this run and in any other run of the same binary, must
// agree on all of them.
type facts struct {
	Digest        string  `json:"digest"`
	CodeBytes     int     `json:"code_bytes"`
	BinaryBytes   int     `json:"binary_bytes"`
	AppCycles     float64 `json:"app_cycles"`
	AppPageFaults int64   `json:"app_page_faults"`
}

// imageRun is what executing one built image showed.
type imageRun struct {
	output        string
	err           error
	runMS         float64
	steps         int64
	outlinedSteps int64
	cycles        float64
	pageFaults    int64
	icacheMisses  int64
	itlbMisses    int64
}

// images executes each distinct built image once, keyed by listing digest:
// builds of the same image share one check.
type images struct {
	mu      sync.Mutex
	pending map[string]func() (*mir.Program, error)
	runs    map[string]imageRun
}

func newImages() *images {
	return &images{pending: map[string]func() (*mir.Program, error){}, runs: map[string]imageRun{}}
}

// run executes prog unless its digest has been executed already.
func (im *images) run(digest string, prog *mir.Program) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if _, ok := im.runs[digest]; !ok {
		im.runs[digest] = runImage(prog)
	}
}

// add registers load as the way to obtain the program with this digest for
// runAll, unless the digest is known already. Safe for concurrent use.
func (im *images) add(digest string, load func() (*mir.Program, error)) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if _, ok := im.runs[digest]; ok {
		return
	}
	if _, ok := im.pending[digest]; !ok {
		im.pending[digest] = load
	}
}

// runAll executes every pending image.
func (im *images) runAll() {
	im.mu.Lock()
	defer im.mu.Unlock()
	for d, load := range im.pending {
		prog, err := load()
		if err != nil {
			im.runs[d] = imageRun{err: err}
		} else {
			im.runs[d] = runImage(prog)
		}
		delete(im.pending, d)
	}
}

// runImage executes main once plainly (output, steps, time) and once under
// the performance simulator (cycles, page faults, cache and TLB misses).
func runImage(prog *mir.Program) imageRun {
	var r imageRun
	m, err := exec.New(prog, exec.Options{})
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	r.output, r.err = m.Run("main")
	r.runMS = ms(time.Since(start))
	if r.err != nil {
		return r
	}
	st := m.Stats()
	r.steps, r.outlinedSteps = st.DynamicInsts, st.OutlinedInsts
	sim := perf.New(simDevice, simOS)
	sm, err := exec.New(prog, exec.Options{Trace: sim.Observe})
	if err != nil {
		r.err = err
		return r
	}
	if _, err := sm.Run("main"); err != nil {
		r.err = fmt.Errorf("simulated run: %w", err)
		return r
	}
	res := sim.Finish()
	r.cycles, r.pageFaults = res.Cycles, res.PageFaults
	r.icacheMisses, r.itlbMisses = res.ICacheMisses, res.ITLBMisses
	return r
}

// listingDigest hashes the build's deterministic image listing, the same
// bytes slc -o writes and slcd returns.
func listingDigest(res *pipeline.Result) (string, error) {
	h := sha256.New()
	if err := res.WriteImageListing(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// judge executes every distinct image the builds produced and counts each
// build as attempted, and as failed when it did not build, its image printed
// something other than the reference output, or its image differs from
// another build of the same input in this run or in an earlier run of this
// binary (config names the build configuration in the cross-run record). It
// returns the facts of each input's first good build.
func (s *session) judge(config string, builds []build) map[string]facts {
	s.images.runAll()
	first := map[string]facts{}
	bad := map[string]bool{} // inputs whose image disagrees with the record
	for _, b := range builds {
		s.attempted++
		if b.err != nil {
			s.failed++
			s.fail("build of %s failed: %v", b.input, b.err)
			continue
		}
		ok := true
		ir := s.images.runs[b.digest]
		switch {
		case ir.err != nil:
			ok = false
			s.fail("image %.12s of %s did not run: %v", b.digest, b.input, ir.err)
		case ir.output != s.ref:
			ok = false
			s.fail("image %.12s of %s printed %q, want %q", b.digest, b.input, clip(ir.output), clip(s.ref))
		}
		f := facts{Digest: b.digest, CodeBytes: b.code, BinaryBytes: b.binary, AppCycles: ir.cycles, AppPageFaults: ir.pageFaults}
		prev, seen := first[b.input]
		switch {
		case !seen:
			first[b.input] = f
			key := fmt.Sprintf("%s seed=%d modules=%d %s", config, s.opts.seed, s.opts.modules, b.input)
			if old, differs := s.record.check(key, f); differs {
				bad[b.input] = true
				s.fail("%s: image differs from an earlier run of this binary: %+v, now %+v", key, old, f)
			}
		case prev != f:
			ok = false
			what := "another build of the same input"
			if b.composed {
				what = "pipeline.Build of the same input"
			}
			s.fail("%s: composed=%t build differs from %s: %+v vs %+v", b.input, b.composed, what, f, prev)
		}
		if !ok || bad[b.input] {
			s.failed++
		}
	}
	return first
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}

// record is the cross-run half of the determinism gate: the facts of every
// input any run of this exact binary has built, keyed by configuration, seed,
// corpus size and input. It lives in the state directory, one file per
// binary, so a rebuilt benchmark starts a fresh record.
type record struct {
	path    string
	entries map[string]facts
}

func openRecord(dir string) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, fmt.Errorf("hashing %s: %w", exe, err)
	}
	r := &record{
		path:    filepath.Join(dir, "determinism-"+hex.EncodeToString(h.Sum(nil))[:16]+".json"),
		entries: map[string]facts{},
	}
	data, err := os.ReadFile(r.path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return r, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(data, &r.entries); err != nil {
		return nil, fmt.Errorf("determinism record %s: %w", r.path, err)
	}
	return r, nil
}

// check compares f with the recorded facts for key, recording f when the
// key is new. It returns the recorded facts and whether they differ.
func (r *record) check(key string, f facts) (facts, bool) {
	old, ok := r.entries[key]
	if !ok {
		r.entries[key] = f
		return f, false
	}
	return old, old != f
}

// save writes the record atomically.
func (r *record) save() error {
	data, err := json.MarshalIndent(r.entries, "", " ")
	if err != nil {
		return err
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.path)
}
