package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// jobs is the worker count of every build: the benchmark machine's nproc.
// The farm's two concurrent builds run one worker each, so no workload ever
// has more than jobs workers busy.
const jobs = 2

// setupRepeats is how often an untraced run sets its workload up; setup_s is
// the median, so one slow repetition does not move it.
const setupRepeats = 5

// session is the state of one benchmark run.
type session struct {
	opts options
	w    io.Writer

	corpus    corpus
	ref       string // the output main must print
	refSource string // where ref came from

	images  *images
	record  *record
	metrics map[string]metric

	attempted, failed int
	failures          []string
	seenFailure       map[string]bool
}

func newSession(opts options, w io.Writer) (*session, error) {
	rec, err := openRecord(opts.state)
	if err != nil {
		return nil, err
	}
	return &session{
		opts:        opts,
		w:           w,
		images:      newImages(),
		record:      rec,
		metrics:     map[string]metric{},
		seenFailure: map[string]bool{},
	}, nil
}

func (s *session) printf(format string, args ...any) {
	fmt.Fprintf(s.w, format+"\n", args...)
}

func (s *session) set(name string, value float64, unit string) {
	s.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records one failure description; each distinct one is printed once.
func (s *session) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !s.seenFailure[msg] {
		s.seenFailure[msg] = true
		s.failures = append(s.failures, msg)
	}
}

// window returns the measuring window.
func (s *session) window() time.Duration {
	return time.Duration(s.opts.seconds) * time.Second
}

// prepare generates the corpus and finds main's reference output. It runs
// once, before and outside the timed set-ups: how much work it is depends on
// the seed (a committed file or a baseline build, and how many candidate
// apps the corpus search tries), so timing it would make setup_s
// incomparable across seeds.
func (s *session) prepare() error {
	s.corpus = newCorpus(s.opts.seed, s.opts.modules)
	ref, src, err := reference(s.opts, s.corpus)
	if err != nil {
		return fmt.Errorf("reference output: %w", err)
	}
	s.ref, s.refSource = ref, src
	return nil
}

// setUp prepares the run, then runs setup and reports the median of
// setupRepeats durations as setup_s, tearing down all but the last state. A
// traced run sets up once and reports no set-up time.
func setUp[T any](s *session, setup func() (T, error), teardown func(T)) (T, error) {
	var state T
	start := time.Now()
	if err := s.prepare(); err != nil {
		return state, err
	}
	prep := time.Since(start).Seconds()
	repeats := setupRepeats
	if s.opts.trace {
		repeats = 1
	}
	var secs []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			teardown(state)
		}
		start := time.Now()
		st, err := setup()
		if err != nil {
			return state, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		state = st
	}
	s.printf("corpus: appgen seed %d, %d modules, %d lines, %d bytes; output check against %s; prepared in %.3f s (untimed)",
		s.corpus.profile.Seed, len(s.corpus.mods), s.corpus.lines, s.corpus.bytes, s.refSource, prep)
	s.printf("set-up: %s s (median of %d)", fmtFloats(secs), repeats)
	if !s.opts.trace {
		s.set("setup_s", median(secs), "s")
	}
	return state, nil
}

// freshDir returns a new empty directory under the run's state directory.
func (s *session) freshDir(prefix string) (string, error) {
	base := filepath.Join(s.opts.state, "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// usage is what an untraced measuring loop collected.
type usage struct {
	lat   []float64     // every attempted build's latency in ms; a failed build is +Inf
	busy  time.Duration // the time builds_per_s divides by
	cpu   time.Duration // process CPU time over the measured builds
	alloc uint64        // bytes allocated over the measured builds
	rss   []float64     // peak-RSS samples in MiB
}

// endToEnd reports an untraced run's metrics; base is the workload's base
// image.
func (s *session) endToEnd(u usage, base facts) {
	ceiling := ms(u.busy)
	tailV, pct, beyond := tail(u.lat)
	if beyond > 0 {
		s.printf("build_ms_tail: p%.1f of %d builds (%d beyond it)", pct, len(u.lat), beyond)
	} else {
		s.printf("build_ms_tail: maximum of %d builds (too few for a percentile with 10 beyond it)", len(u.lat))
	}
	n := float64(len(u.lat))
	s.set("build_ms_p50", capInf(median(u.lat), ceiling), "ms")
	s.set("build_ms_tail", capInf(tailV, ceiling), "ms")
	s.set("builds_per_s", float64(s.attempted-s.failed)/u.busy.Seconds(), "1/s")
	s.set("cpu_ms_per_build", ms(u.cpu)/n, "ms")
	s.set("code_bytes", float64(base.CodeBytes), "bytes")
	s.set("binary_bytes", float64(base.BinaryBytes), "bytes")
	s.set("app_cycles", base.AppCycles, "cycles")
	s.set("app_page_faults", float64(base.AppPageFaults), "count")
	s.set("peak_rss_mb", median(u.rss), "MB")
	s.set("alloc_mb_per_build", float64(u.alloc)/(1<<20)/n, "MB")
}

// result prints the failures and the metrics and assembles the JSON result.
func (s *session) result() *result {
	if !s.opts.trace && s.attempted > 0 {
		s.set("ok_frac", float64(s.attempted-s.failed)/float64(s.attempted), "ratio")
	}
	for i, f := range s.failures {
		if i == 20 {
			s.printf("FAIL: ... %d more", len(s.failures)-i)
			break
		}
		s.printf("FAIL: %s", f)
	}
	names := make([]string, 0, len(s.metrics))
	for n := range s.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.printf("%-28s %14.4f %s", n, s.metrics[n].Value, s.metrics[n].Unit)
	}
	frac := 1.0
	if s.attempted > 0 {
		frac = float64(s.failed) / float64(s.attempted)
	}
	s.printf("attempted %d builds, failed %d (failed_frac %.4f)", s.attempted, s.failed, frac)
	return &result{
		Correct:   s.failed == 0 && len(s.failures) == 0 && s.attempted > 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   s.metrics,
	}
}

// capInf replaces an infinite percentile (more failed builds than the
// percentile leaves room for) with ceiling, the longest latency the run
// could have observed.
func capInf(v, ceiling float64) float64 {
	if math.IsInf(v, 1) {
		return ceiling
	}
	return v
}
