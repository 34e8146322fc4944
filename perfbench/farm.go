package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"outliner/internal/cache"
	"outliner/internal/mir"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/slcd"
)

const (
	// farmClients is the closed-loop client count: a developer and CI.
	farmClients = 2
	// sharedShare is the share of request indexes at which both clients
	// send the same request (a developer and CI building the same commit).
	// It is an assumption, not a measurement; README.md reports how far the
	// end-to-end metrics move when it changes.
	sharedShare = 0.25
	// shardBytes caps the in-process remote shard; the run never fills it.
	shardBytes = 256 << 20
)

// farmBuildConfig is the Default pipeline as slcd serves it: per-module
// codegen and one round of per-module outlining, no merging, verifier on.
func farmBuildConfig() slcd.BuildConfig {
	return slcd.BuildConfig{OutlineRounds: 1, Verify: true}
}

// farmPipelineConfig is farmBuildConfig as slcd lowers it onto
// pipeline.Config. The output check builds each distinct farm image again
// in-process under it and requires the same listing, because a listing is
// not an executable form of the program: the MIR text it ends with omits
// MSUB's accumulator register, so a program parsed back from it computes
// remainders wrongly.
func farmPipelineConfig() pipeline.Config {
	return pipeline.Config{
		OutlineRounds:      1,
		SILOutline:         true,
		SpecializeClosures: true,
		PreserveDataLayout: true,
		SplitGCMetadata:    true,
		Verify:             true,
		OnVerifyFailure:    outline.VerifyAbort,
		Parallelism:        jobs,
	}
}

// farmImage is the loader of the program behind a farm response with the
// given listing digest: an in-process build of the same request.
func (s *session) farmImage(e edit, digest string) func() (*mir.Program, error) {
	return func() (*mir.Program, error) {
		res, err := pipeline.Build(sources(e.apply(s.corpus.mods)), farmPipelineConfig())
		if err != nil {
			return nil, fmt.Errorf("in-process build of the farm's request: %w", err)
		}
		d, err := listingDigest(res)
		if err != nil {
			return nil, err
		}
		if d != digest {
			return nil, fmt.Errorf("in-process build of the farm's request lists image %.12s, the farm listed %.12s", d, digest)
		}
		return res.Prog, nil
	}
}

// farmState is an in-process build farm: one healthy remote cache shard and
// an slcd daemon in front of it, both behind httptest listeners.
type farmState struct {
	dir    string
	shard  *httptest.Server
	srv    *slcd.Server
	daemon *httptest.Server
}

// setupFarm starts the farm and warms it with one build of the base corpus.
func (s *session) setupFarm() (*farmState, error) {
	dir, err := s.freshDir("farm")
	if err != nil {
		return nil, err
	}
	store, err := cache.OpenShard(filepath.Join(dir, "shard"), shardBytes)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &farmState{dir: dir, shard: httptest.NewServer(cache.NewShardServer(store))}
	f.srv = slcd.NewServer(slcd.Options{
		CacheDir:    filepath.Join(dir, "cache"),
		ShardURLs:   []string{f.shard.URL},
		Parallelism: jobs / farmClients,
		MaxBuilds:   farmClients,
	})
	f.daemon = httptest.NewServer(f.srv.Handler())
	resp, _, err := f.post(s.farmRequest(edit{}))
	if err == nil && !resp.OK {
		err = fmt.Errorf("%s: %s", resp.ErrorClass, resp.Error)
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("priming build: %w", err)
	}
	return f, nil
}

// close stops the daemon and the shard, waiting for their handlers, and
// removes their directories.
func (f *farmState) close() {
	f.daemon.Close()
	f.srv.Close()
	f.shard.Close()
	cache.Forget(filepath.Join(f.dir, "cache"))
	os.RemoveAll(f.dir)
}

func (s *session) farmRequest(e edit) *slcd.BuildRequest {
	mods := e.apply(s.corpus.mods)
	req := &slcd.BuildRequest{Modules: make([]slcd.ModuleSource, len(mods)), Config: farmBuildConfig()}
	for i, m := range mods {
		req.Modules[i] = slcd.ModuleSource{Name: m.Name, Files: m.Files}
	}
	return req
}

// post sends one build request and returns the decoded response and the
// latency from sending the request to having decoded the response.
func (f *farmState) post(req *slcd.BuildRequest) (*slcd.BuildResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	hr, err := f.daemon.Client().Post(f.daemon.URL+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	var resp slcd.BuildResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, 0, fmt.Errorf("decoding /build response (HTTP %d): %w", hr.StatusCode, err)
	}
	return &resp, time.Since(start), nil
}

func (f *farmState) stats() (slcd.Stats, error) {
	var st slcd.Stats
	hr, err := f.daemon.Client().Get(f.daemon.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /stats: %w", err)
	}
	return st, nil
}

// farmEdit is client's k-th request and whether it is shared: with
// probability sharedShare the same body edit for both clients, otherwise a
// body edit private to the client.
func (s *session) farmEdit(client, k int) (edit, bool) {
	mods := s.corpus.mods
	r := rand.New(rand.NewSource(s.opts.seed*1_000_003 + int64(k)*(farmClients+1)))
	if r.Float64() < sharedShare {
		return edit{kind: bodyEdit, module: mods[r.Intn(len(mods))].Name, tag: fmt.Sprintf("s%d", k)}, true
	}
	r = rand.New(rand.NewSource(s.opts.seed*1_000_003 + int64(k)*(farmClients+1) + int64(client+1)))
	return edit{kind: bodyEdit, module: mods[r.Intn(len(mods))].Name, tag: fmt.Sprintf("c%d-%d", client, k)}, false
}

// pairing lines the two clients up at every shared request, so the
// identical requests reach the daemon together, as when CI starts building
// the commit a developer has just pushed. Both clients see the same shared
// indexes, so their j-th meetings pair up. A client that has left the loop
// no longer holds the other back.
type pairing struct {
	mu      sync.Mutex
	waiting chan struct{} // closed when the partner arrives or leaves
	left    bool
}

func (p *pairing) meet() {
	p.mu.Lock()
	if p.left {
		p.mu.Unlock()
		return
	}
	if p.waiting != nil {
		close(p.waiting)
		p.waiting = nil
		p.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	p.waiting = ch
	p.mu.Unlock()
	<-ch
}

func (p *pairing) leave() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.left = true
	if p.waiting != nil {
		close(p.waiting)
		p.waiting = nil
	}
}

// farmReq is one request as its client saw it.
type farmReq struct {
	b build
	// iter is the client's whole loop iteration: preparing the request,
	// waiting for the other client at a shared request, the request itself
	// (b.wall) and handling the response.
	iter time.Duration
	// counters are the ones the daemon returned with the response.
	counters map[string]int64
}

// runFarm is the build farm: farmClients closed-loop clients send one-module
// edits to the daemon until the window closes (at least one request each).
func runFarm(s *session) error {
	f, err := setUp(s, s.setupFarm, (*farmState).close)
	if err != nil {
		return err
	}
	defer f.close()
	before, err := f.stats()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rss := startRSSMonitor(time.Second / 2)
	cpu := cpuTime()
	start := time.Now()
	deadline := start.Add(s.window())
	perClient := make([][]farmReq, farmClients)
	var pair pairing
	var wg sync.WaitGroup
	for c := 0; c < farmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer pair.leave()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				iterStart := time.Now()
				perClient[c] = append(perClient[c], s.farmStep(f, &pair, c, k))
				perClient[c][k].iter = time.Since(iterStart)
			}
		}(c)
	}
	wg.Wait()
	u := usage{busy: time.Since(start), cpu: cpuTime() - cpu, rss: rss.finish()}
	runtime.ReadMemStats(&m1)
	u.alloc = m1.TotalAlloc - m0.TotalAlloc
	after, err := f.stats()
	if err != nil {
		return err
	}
	var reqs []farmReq
	var builds []build
	for _, rs := range perClient {
		for _, r := range rs {
			reqs = append(reqs, r)
			builds = append(builds, r.b)
		}
	}
	first := s.judge("default-farm", builds)
	base := first["base"]
	if !s.opts.trace {
		for _, r := range reqs {
			if r.b.err != nil {
				u.lat = append(u.lat, math.Inf(1))
			} else {
				u.lat = append(u.lat, ms(r.b.wall))
			}
		}
		s.endToEnd(u, base)
		return nil
	}
	var samples []layerSample
	for _, r := range reqs {
		if r.b.err == nil {
			samples = append(samples, farmSample(r))
		}
	}
	s.perLayer(samples, s.images.runs[base.Digest])
	// Every response carries its counters, traced run or not, so a traced
	// farm run does exactly the work of an untraced one.
	s.set("trace.overhead_ms", 0, "ms")
	if d := after.Builds - before.Builds; d > 0 {
		wait := after.Counters["slcd/queue_wait_ns"] - before.Counters["slcd/queue_wait_ns"]
		s.set("slcd.queue_wait_ms", float64(wait)/1e6/float64(d), "ms")
	}
	s.set("slcd.flight_waits", float64(after.FlightWaits-before.FlightWaits), "count")
	refused := int64(0)
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "slcd/refused/") {
			refused += v - before.Counters[name]
		}
	}
	s.set("slcd.refused", float64(refused), "count")
	return nil
}

// farmStep sends client's k-th request and records what came back.
func (s *session) farmStep(f *farmState, pair *pairing, client, k int) farmReq {
	e, shared := s.farmEdit(client, k)
	r := farmReq{b: build{input: e.input()}}
	if shared {
		pair.meet()
	}
	resp, lat, err := f.post(s.farmRequest(e))
	r.b.wall = lat
	switch {
	case err != nil:
		r.b.err = err
	case !resp.OK:
		r.b.err = fmt.Errorf("%s: %s", resp.ErrorClass, resp.Error)
	default:
		r.b.digest = digestString(resp.Listing)
		r.b.code, r.b.binary = resp.CodeSize, resp.TotalSize
		s.images.add(r.b.digest, s.farmImage(e, r.b.digest))
		r.counters = resp.Counters
	}
	return r
}

// farmSample derives one request's per-layer values from its
// client-side timing and the counters the daemon returned with it.
func farmSample(r farmReq) layerSample {
	c := r.counters
	sm := layerSample{
		"slcd.request_ms":          ms(r.b.wall),
		"trace.wall_ms":            ms(r.iter),
		"trace.glue_ms":            ms(r.iter - r.b.wall),
		"cache.key_ms":             float64(c["cache/key_hash_ns"]) / 1e6,
		"frontend.modules_lowered": float64(c["flight/llir/computes"]),
		"cache.bytes_read":         float64(c["cache/bytes_read"]),
		"cache.bytes_written":      float64(c["cache/bytes_written"]),
		"cache.remote_errors":      float64(c["cache/remote_errors"]),
	}
	ratio := func(name string, num, other int64) {
		if num+other > 0 {
			sm[name] = float64(num) / float64(num+other)
		}
	}
	ratio("cache.llir_hit_ratio", c["cache/llir/hits"], c["cache/llir/misses"])
	ratio("cache.machine_hit_ratio", c["cache/machine/hits"], c["cache/machine/misses"])
	ratio("cache.flight_deduped_ratio", c["flight/deduped"], c["flight/computes"])
	return sm
}
