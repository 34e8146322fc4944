package pipeline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"outliner/internal/artifact"
	"outliner/internal/cache"
	"outliner/internal/fault"
	"outliner/internal/frontend"
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
)

// BuildCache is the pipeline's handle on the content-addressed incremental
// build cache (internal/cache). A nil *BuildCache is valid and always
// misses, so call sites stay unconditional — the same nil-safety contract
// obs.Tracer follows.
//
// Every cached stage runs through one stage runner, cachedStage, which owns
// the whole protocol: key timing, probe, decode, miss, single-flight, and
// publish. A stage contributes only a key function and a stageCodec (encode,
// and decode plus any counter replay). Adding a cached stage means adding a
// codec and a key, never another copy of the protocol. The stages today:
//
//   - stage "llir" (both pipelines): the lowered LLIR module produced by the
//     per-module frontend→SIL→LLIR stage. Input: the module's own sources
//     plus every other module's exported-interface digest (imports expose
//     declarations, not bodies — see frontend.InterfaceDigest), so a
//     body-only edit in one module leaves every other module's entry valid.
//     Config: only the fields that stage reads —
//     SILOutline, SpecializeClosures, Verify — so builds differing in
//     backend-only knobs (outlining rounds, merge passes, pipeline choice)
//     share frontend artifacts.
//   - stage "machine" (default pipeline only): the per-module machine
//     program after codegen and per-module outlining, plus its outlining
//     stats. Input: the canonical encoding of the (pre-merge) LLIR module
//     plus the cross-module-referenced symbols the merge passes must
//     preserve. Config: MergeFunctions, FMSA, OutlineRounds,
//     FlatOutlineCost, Verify.
//
// Post-irlink whole-program stages are deliberately uncached: they consume
// the merged program, whose content hash changes whenever any module
// changes, so a cache entry could never be reused across edits — it would
// only add encode/hash overhead to every build.
type BuildCache struct {
	c *cache.Cache
	// flight dedupes identical in-flight stage computations across the
	// concurrent builds sharing cfg.Flight (a compile daemon). nil outside
	// service mode and on faulted builds.
	flight *cache.Flight
	// fault arms the ArtifactDecode injection point (an injected decoder
	// rejection, degrading to a miss). nil when the build runs clean.
	fault *fault.Injector
}

// OpenBuildCache returns the cache for cfg.CacheDir, or nil (a valid
// always-miss cache) when no cache directory is configured. A faulted build
// gets a private cache handle, never the process-shared one — and neither the
// remote tier nor the single-flight layer: injected I/O errors and corruption
// must not leak into concurrent clean builds of the same directory, and a
// faulted build's artifacts must never be shared through a flight group.
func OpenBuildCache(cfg Config) (*BuildCache, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	var c *cache.Cache
	var err error
	if cfg.Fault != nil {
		c, err = cache.Open(cfg.CacheDir)
		if err == nil {
			c.SetFault(cfg.Fault)
		}
	} else {
		c, err = cache.Shared(cfg.CacheDir)
		if err == nil && cfg.Remote != nil {
			c.SetRemote(cfg.Remote)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	bc := &BuildCache{c: c, fault: cfg.Fault}
	if cfg.Fault == nil {
		bc.flight = cfg.Flight
	}
	return bc, nil
}

func (bc *BuildCache) enabled() bool { return bc != nil && bc.c != nil }

// SourceHash fingerprints one module's source content (name plus files in
// deterministic order).
func SourceHash(src Source) string {
	h := cache.NewHasher()
	h.WriteString(src.Name)
	for _, nf := range sortedFileList(src.Files) {
		h.WriteString(nf.name)
		h.WriteString(nf.text)
	}
	return h.Sum()
}

// ModuleKeys holds the per-module digests one build's key computations
// share: each module's source content is hashed exactly once, and each
// module's exported interface is digested exactly once, no matter how many
// importers fold them into their keys.
type ModuleKeys struct {
	// Src[i] is SourceHash of module i — the full content fingerprint.
	Src []string
	// Iface[i] is frontend.InterfaceDigest of module i's parsed files — the
	// dependency fingerprint importers see. Body edits leave it unchanged.
	Iface []string
}

// ComputeModuleKeys derives the build's shared digest table from the
// already-parsed modules. The cost is recorded under cache/key_hash_ns.
func ComputeModuleKeys(sources []Source, parsed [][]*frontend.File, tr *obs.Tracer) *ModuleKeys {
	start := time.Now()
	keys := &ModuleKeys{
		Src:   make([]string, len(sources)),
		Iface: make([]string, len(sources)),
	}
	for i, src := range sources {
		keys.Src[i] = SourceHash(src)
		keys.Iface[i] = frontend.InterfaceDigest(parsed[i]...)
	}
	tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	return keys
}

// llirFingerprint covers exactly the Config fields the frontend→LLIR stage
// reads. Adding a field that changes per-module lowering MUST extend this
// string (append-only; the shape change alone invalidates old entries).
func llirFingerprint(cfg Config) string {
	return fmt.Sprintf("siloutline=%t specclosures=%t verify=%t",
		cfg.SILOutline, cfg.SpecializeClosures, cfg.Verify) + faultFingerprint(cfg)
}

// machineFingerprint covers the Config fields the default pipeline's
// per-module codegen+outline stage reads. OnVerifyFailure participates
// because a degraded (rolled-back) artifact is a different program than an
// abort-mode build would have produced. KeepGoing does not: it only changes
// error reporting, never a successful artifact.
func machineFingerprint(cfg Config) string {
	onvf := cfg.OnVerifyFailure
	if onvf == "" {
		onvf = outline.VerifyAbort
	}
	return fmt.Sprintf("merge=%t fmsa=%t rounds=%d flat=%t verify=%t onvf=%s",
		cfg.MergeFunctions, cfg.FMSA, cfg.OutlineRounds, cfg.FlatOutlineCost, cfg.Verify, onvf) +
		faultFingerprint(cfg) + profileFingerprint(cfg) + layoutFingerprint(cfg)
}

// layoutFingerprint keys machine-stage entries by the layout policy. The
// machine stage itself is per-module and pre-link — the layout pass runs
// after it and cannot change its artifacts — but the policy joins the key
// anyway, like prof=/coldonly= do, so a future per-module layout hook can
// never silently share entries across policies. An unset (or explicit none)
// policy contributes nothing, keeping earlier releases' keys intact.
func layoutFingerprint(cfg Config) string {
	if cfg.Layout == "" || cfg.Layout == layout.None {
		return ""
	}
	return " layout=" + cfg.Layout
}

// profileFingerprint keys machine-stage entries by profile identity and
// cold-only policy. The profile content digest (not a file name) identifies
// the profile, so two different profiles can never share entries; an
// unprofiled, ungated build contributes nothing, keeping its keys identical
// to every earlier release's.
func profileFingerprint(cfg Config) string {
	if cfg.Profile == nil && !cfg.OutlineColdOnly {
		return ""
	}
	return fmt.Sprintf(" prof=%s coldonly=%t coldthr=%d",
		cfg.Profile.Digest(), cfg.OutlineColdOnly, cfg.OutlineColdThreshold)
}

// faultFingerprint keys cache entries by the fault-injection schedule. Any
// armed injector — even rate 0 — gets its own key space: a faulted build may
// cache artifacts shaped by injected corruption (a rolled-back outline, a
// degraded merge), and a clean build must never consume them, nor publish
// entries a replaying chaos seed would then unexpectedly hit.
func faultFingerprint(cfg Config) string {
	if cfg.Fault == nil {
		return ""
	}
	// String covers both schedule forms: "seed=N rate=R" for chaos injectors
	// and the sorted point list for scripted ones.
	return " fault=" + cfg.Fault.String()
}

// llirKey scopes module self's dependency fingerprint to its imports'
// exported interfaces: the input hash covers self's own sources in full plus
// only the interface digests of the other modules, in module order.
func llirKey(self int, keys *ModuleKeys, cfg Config) cache.Key {
	h := cache.NewHasher().WriteString(keys.Src[self])
	for j, d := range keys.Iface {
		if j != self {
			h.WriteString(d)
		}
	}
	return cache.Key{
		Stage:  "llir",
		Input:  h.Sum(),
		Config: llirFingerprint(cfg),
		Schema: artifact.SchemaVersion,
	}
}

// machineKey derives the default pipeline's per-module codegen+outline key
// from the module's (pre-merge) canonical encoding and the
// cross-module-referenced symbols the merge passes must keep.
func machineKey(lm *llir.Module, crossRefs map[string]bool, cfg Config) cache.Key {
	h := cache.NewHasher().Write(artifact.EncodeModule(lm))
	if len(crossRefs) > 0 {
		// Only the refs that name this module's functions influence the
		// stage; sorting keeps the hash independent of map order.
		var keep []string
		for _, f := range lm.Funcs {
			if crossRefs[f.Name] {
				keep = append(keep, f.Name)
			}
		}
		sort.Strings(keep)
		h.WriteString("keep")
		for _, s := range keep {
			h.WriteString(s)
		}
	}
	return cache.Key{
		Stage:  "machine",
		Input:  h.Sum(),
		Config: machineFingerprint(cfg),
		Schema: artifact.SchemaVersion,
	}
}

// probeCounters mirrors what a disk or remote operation survived — retries, a
// failed corrupt-entry deletion, a degraded-over I/O or shard error — into the
// build's counters (-summary's resilience section). Zero-valued fields add
// nothing, so clean builds keep clean counter sets.
func probeCounters(tr *obs.Tracer, pr cache.Probe) {
	if pr.Retries > 0 {
		tr.Add("cache/retries", int64(pr.Retries))
	}
	if pr.RemoveErr != nil {
		tr.Add("cache/remove_failed", 1)
	}
	if pr.IOErr != nil {
		tr.Add("cache/io_errors", 1)
	}
	if pr.RemoteErr != nil {
		tr.Add("cache/remote_errors", 1)
	}
}

// stageCodec is what a cached stage contributes to cachedStage besides its
// key: how its artifact encodes, and how stored bytes decode back into it.
// decode also re-emits the telemetry the skipped computation would have
// produced, so counter-derived reports agree between cold and warm builds.
type stageCodec[T any] struct {
	encode func(T) []byte
	decode func(data []byte, tr *obs.Tracer) (T, error)
}

// cachedStage runs one cached stage computation for one module (name), the
// single copy of the cache protocol every stage shares: derive the key (timed
// under cache/key_hash_ns), probe, decode a hit, and on a miss compute and
// publish — through the single-flight layer when one is configured, so
// concurrent service-mode builds compute each key once. The key's Stage
// names the stage's counters and span. Without a cache it only computes.
//
// compute runs at most once per call, so it may mutate its inputs in place
// (the machine stage's merge passes do). A cancelled leader never computes
// or publishes, and a result computed under a context cancelled meanwhile is
// discarded unpublished, so no later build observes a cancelled build's
// artifact. A damaged entry, an injected decode fault, or shared flight bytes
// this build cannot decode degrade to a private compute, never to an error.
//
// Counters: every lookup counts a probe and then exactly one of hit (a stored
// entry decoded into a usable artifact, attributed to the tier that served
// it) or miss (absent entry, or a corrupted one — additionally counted under
// cache/corrupt). flight/computes counts closures that actually ran the stage
// (the dedupe test's strict equation: computes == unique stage keys);
// flight/deduped counts builds that consumed another build's in-flight result.
func cachedStage[T any](bc *BuildCache, ctx context.Context, tr *obs.Tracer, lane int, name string,
	key func() cache.Key, codec stageCodec[T], compute func() (T, error)) (T, error) {
	if !bc.enabled() {
		return compute()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	keyStart := time.Now()
	k := key()
	tr.Add("cache/key_hash_ns", time.Since(keyStart).Nanoseconds())
	stage := k.Stage
	sp := tr.StartSpan("cache "+stage+" "+name, lane)
	tr.Add("cache/probes", 1)
	tr.Add("cache/"+stage+"/probes", 1)
	data, ok, pr := bc.c.GetProbeCtx(ctx, k)
	probeCounters(tr, pr)
	corrupt := pr.Corrupt
	if ok {
		derr := bc.fault.MaybeError(fault.ArtifactDecode, stage+"/"+k.Input)
		var v T
		if derr == nil {
			v, derr = codec.decode(data, tr)
		}
		if derr == nil {
			tr.Add("cache/hits", 1)
			tr.Add("cache/"+stage+"/hits", 1)
			tr.Add("cache/bytes_read", int64(len(data)))
			if pr.Tier != "" {
				tr.Add("cache/tier/"+pr.Tier+"/hits", 1)
			}
			sp.Arg("hit", true).Arg("tier", pr.Tier).End()
			return v, nil
		}
		corrupt = true
	}
	tr.Add("cache/misses", 1)
	tr.Add("cache/"+stage+"/misses", 1)
	if corrupt {
		tr.Add("cache/corrupt", 1)
	}
	sp.Arg("hit", false).End()
	publish := func(v T) []byte {
		enc := codec.encode(v)
		probeCounters(tr, bc.c.PutProbeCtx(ctx, k, enc))
		tr.Add("cache/stores", 1)
		tr.Add("cache/bytes_written", int64(len(enc)))
		return enc
	}
	var zero T
	if bc.flight == nil {
		v, err := compute()
		if err != nil {
			return zero, err
		}
		publish(v)
		return v, nil
	}
	// Service mode. The flight's currency is the encoded artifact: each
	// waiter decodes a private copy, so no mutable structure is ever shared
	// across builds.
	var computed T
	led := false
	enc, shared, err := bc.flight.Do(k, func() ([]byte, error) {
		// Returning the context error makes flight.Do hand waiters
		// ErrFlightAborted while this build reports its own cancellation.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Re-probe under the flight: an earlier leader may have published and
		// left the group between this build's probe and its turn here.
		if data, ok, _ := bc.c.GetProbeCtx(ctx, k); ok {
			return data, nil
		}
		tr.Add("flight/computes", 1)
		tr.Add("flight/"+stage+"/computes", 1)
		v, cerr := compute()
		if cerr != nil {
			return nil, cerr
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		computed, led = v, true
		return publish(v), nil
	})
	if shared {
		tr.Add("flight/deduped", 1)
		tr.Add("flight/"+stage+"/deduped", 1)
	}
	if err != nil {
		return zero, err
	}
	if led {
		// This build led the flight: return what it computed (its telemetry
		// was emitted live), exactly the non-flight cold path.
		return computed, nil
	}
	v, derr := codec.decode(enc, tr)
	if derr != nil {
		// compute has not run in this build, so the private fallback is
		// safe; the leader already published, so nothing is re-published.
		return compute()
	}
	return v, nil
}

// llirCodec stores the lowered per-module LLIR module.
var llirCodec = stageCodec[*llir.Module]{
	encode: artifact.EncodeModule,
	decode: func(data []byte, _ *obs.Tracer) (*llir.Module, error) { return artifact.DecodeModule(data) },
}

// machineArtifact is the default pipeline's per-module machine-stage result:
// the outlined machine program plus its outlining stats (nil when the build
// runs no outlining rounds).
type machineArtifact struct {
	prog  *mir.Program
	stats *outline.Stats
}

// machineCodec stores a machineArtifact; decoding replays the outlining
// counters the skipped compute would have emitted.
var machineCodec = stageCodec[machineArtifact]{
	encode: func(a machineArtifact) []byte { return artifact.EncodeMachine(a.prog, a.stats) },
	decode: func(data []byte, tr *obs.Tracer) (machineArtifact, error) {
		p, st, err := artifact.DecodeMachine(data)
		if err != nil {
			return machineArtifact{}, err
		}
		replayOutlineCounters(tr, st)
		return machineArtifact{p, st}, nil
	},
}

// CompileToLLIRCached is CompileToLLIR behind the build cache: on a hit the
// stored module is decoded instead of recompiled; on a miss (or a corrupted
// entry) the module is compiled and published. keys must be the build's
// ComputeModuleKeys table and self the index of src. Cold and warm paths
// yield structurally identical modules, so the built image is byte-identical
// either way.
func (bc *BuildCache) CompileToLLIRCached(src Source, cfg Config, imports *frontend.Imports, self int, keys *ModuleKeys, lane int) (*llir.Module, error) {
	return cachedStage(bc, cfg.Ctx, cfg.Tracer, lane, src.Name,
		func() cache.Key { return llirKey(self, keys, cfg) },
		llirCodec,
		func() (*llir.Module, error) { return CompileToLLIR(src, cfg, imports) })
}

// replayOutlineCounters re-emits the per-round outlining counters a cache
// hit skipped, so counter-derived reports (fig12's Table II, -summary's
// convergence table) agree between cold and warm builds. Discovery-internal
// counters (suffix-tree size, candidates found/rejected) are not stored in
// the artifact and stay absent on warm builds.
func replayOutlineCounters(tr *obs.Tracer, st *outline.Stats) {
	if st == nil {
		return
	}
	for _, rs := range st.Rounds {
		tr.Add("outline/rounds", 1)
		tr.Add(obs.RoundCounter(rs.Round, obs.RoundSequences), int64(rs.SequencesOutlined))
		tr.Add(obs.RoundCounter(rs.Round, obs.RoundFunctions), int64(rs.FunctionsCreated))
		tr.Add(obs.RoundCounter(rs.Round, obs.RoundOutlinedBytes), int64(rs.OutlinedBytes))
		tr.Add(obs.RoundCounter(rs.Round, obs.RoundBytesSaved), int64(rs.BytesSaved))
		tr.Add("outline/sequences", int64(rs.SequencesOutlined))
		tr.Add("outline/functions", int64(rs.FunctionsCreated))
		tr.Add("outline/outlined_bytes", int64(rs.OutlinedBytes))
		tr.Add("outline/bytes_saved", int64(rs.BytesSaved))
	}
}
