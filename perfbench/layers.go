package main

import "fmt"

// layerUnits lists every per-layer metric a traced run prints. A metric a
// workload cannot observe prints as 0; README.md says which are observed
// where.
var layerUnits = map[string]string{
	"frontend.parse_ms":          "ms",
	"frontend.lower_ms":          "ms",
	"frontend.modules_lowered":   "count",
	"cache.key_ms":               "ms",
	"cache.llir_hit_ratio":       "ratio",
	"cache.bytes_read":           "bytes",
	"cache.bytes_written":        "bytes",
	"cache.machine_hit_ratio":    "ratio",
	"cache.remote_errors":        "count",
	"cache.flight_deduped_ratio": "ratio",
	"irlink.link_ms":             "ms",
	"llir.merge_ms":              "ms",
	"llir.simplify_ms":           "ms",
	"llir.verify_ms":             "ms",
	"llir.insts_after_opt":       "count",
	"codegen.compile_ms":         "ms",
	"codegen.insts":              "count",
	"outline.outline_ms":         "ms",
	"outline.bytes_saved_r1":     "bytes",
	"outline.bytes_saved_r2":     "bytes",
	"outline.bytes_saved_r3":     "bytes",
	"outline.bytes_saved_r4":     "bytes",
	"outline.bytes_saved_r5":     "bytes",
	"outline.sequences":          "count",
	"outline.functions_created":  "count",
	"layout.apply_ms":            "ms",
	"layout.cross_page_ratio":    "ratio",
	"layout.touched_pages":       "count",
	"verify.program_ms":          "ms",
	"verify.image_ms":            "ms",
	"binimg.build_ms":            "ms",
	"perf.pagetouch_ms":          "ms",
	"exec.run_ms":                "ms",
	"exec.steps":                 "count",
	"exec.outlined_steps_ratio":  "ratio",
	"perf.icache_misses":         "count",
	"perf.itlb_misses":           "count",
	"slcd.request_ms":            "ms",
	"slcd.queue_wait_ms":         "ms",
	"slcd.flight_waits":          "count",
	"slcd.refused":               "count",
	"trace.wall_ms":              "ms",
	"trace.glue_ms":              "ms",
	"trace.overhead_ms":          "ms",
}

// perLayer reports a traced run: the mean of each value over the samples
// (means, unlike medians, keep the layer times adding up to trace.wall_ms)
// and the base image's execution. Metrics no sample carries report 0; the
// caller sets trace.overhead_ms.
func (s *session) perLayer(samples []layerSample, img imageRun) {
	sums := map[string]float64{}
	for _, sm := range samples {
		for k, v := range sm {
			if _, ok := layerUnits[k]; !ok {
				panic(fmt.Sprintf("perfbench: layer sample has undeclared metric %q", k))
			}
			sums[k] += v
		}
	}
	for name, unit := range layerUnits {
		v := 0.0
		if len(samples) > 0 {
			v = sums[name] / float64(len(samples))
		}
		s.set(name, v, unit)
	}
	s.set("exec.run_ms", img.runMS, "ms")
	s.set("exec.steps", float64(img.steps), "count")
	if img.steps > 0 {
		s.set("exec.outlined_steps_ratio", float64(img.outlinedSteps)/float64(img.steps), "ratio")
	}
	s.set("perf.icache_misses", float64(img.icacheMisses), "count")
	s.set("perf.itlb_misses", float64(img.itlbMisses), "count")
	wall, glue := s.metrics["trace.wall_ms"].Value, s.metrics["trace.glue_ms"].Value
	s.printf("trace: %d traced builds; mean wall %.2f ms = layers %.2f ms + glue %.2f ms",
		len(samples), wall, wall-glue, glue)
}
