package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// declaration is the part of BENCHMARK.json the smoke test checks the
// program against.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestSmoke runs every declared workload on a tiny corpus for one short
// untraced and one short traced run, and requires every declared metric to
// print with its declared unit, nothing else to print, and no build or check
// to fail.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	var declared []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !slices.Equal(got, declared) {
		t.Fatalf("program runs workloads %v, BENCHMARK.json declares %v", got, declared)
	}
	for _, name := range declared {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				opts := options{workload: name, seed: 7, seconds: 1, trace: traced, modules: 12, state: t.TempDir()}
				res, err := run(opts, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, declared in %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				if !traced && res.Metrics["ok_frac"].Value != 1 {
					t.Errorf("ok_frac = %v, want 1 (failed_frac 0)", res.Metrics["ok_frac"].Value)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not encode: %v", err)
				}
			})
		}
	}
}
