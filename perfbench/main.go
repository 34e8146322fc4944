// Command perfbench is the repository's benchmark. It builds a seeded
// UberRider corpus (internal/appgen) under one of three workloads, times every
// build from outside the compiler, executes each built image and checks its
// output against a reference that does not come from the configuration under
// test, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"build_ms_p50": {"value": 612.4, "unit": "ms"}, ...}}
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload osize-cold|osize-edit|farm-default --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 rebuilds the same
// inputs by calling each layer's public functions in pipeline order, timing
// every call from here, and reports the per-layer metrics. README.md lists
// the metrics, the layers and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*session) error{
	"osize-cold":   runOSizeCold,
	"osize-edit":   runOSizeEdit,
	"farm-default": runFarm,
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// modules is the corpus size: defaultModules, except in the smoke
	// test, which shrinks it.
	modules int
	// state is the directory for cache directories and the cross-run
	// determinism record.
	state string
}

func parseArgs(args []string) (opts options, writeExpected bool, err error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opts.workload, "workload", "osize-cold", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "corpus and workload seed")
	fs.IntVar(&opts.seconds, "seconds", 10, "length of the measuring window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	fs.BoolVar(&writeExpected, "write-expected", false, "write main's expected output for --seed from the baseline configuration into perfbench/expected, then exit")
	if err := fs.Parse(args); err != nil {
		return opts, false, err
	}
	if fs.NArg() > 0 {
		return opts, false, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[opts.workload]; !ok {
		return opts, false, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return opts, false, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if opts.seconds < 1 {
		return opts, false, fmt.Errorf("--seconds must be positive")
	}
	opts.modules = defaultModules
	opts.trace = *trace == 1
	opts.state = filepath.Join(".bench_build", "perfbench")
	return opts, writeExpected, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	opts, writeExpected, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if writeExpected {
		if err := writeExpectedOutput(opts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and returns its result. Report lines go to w. An
// error means the benchmark could not run at all (no result is printed);
// failed builds and failed checks are counted in the result instead.
func run(opts options, w io.Writer) (*result, error) {
	if err := os.MkdirAll(opts.state, 0o755); err != nil {
		return nil, err
	}
	s, err := newSession(opts, w)
	if err != nil {
		return nil, err
	}
	mode := "untraced: end-to-end metrics"
	if opts.trace {
		mode = "traced: per-layer metrics"
	}
	s.printf("perfbench: workload %s, seed %d, %d-module corpus, -j%d, %ds window, %s",
		opts.workload, opts.seed, opts.modules, jobs, opts.seconds, mode)
	if err := workloads[opts.workload](s); err != nil {
		return nil, err
	}
	if err := s.record.save(); err != nil {
		return nil, err
	}
	return s.result(), nil
}
