package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/pkt"
)

// Span names. Job-level spans carry the job's derived seed as their job
// id; campaign-level spans (cache, journal, wire) carry 0.
const (
	spanJob        = "job"
	spanSpecBuild  = "exp.spec_build"
	spanWorldBuild = "exp.world_build"
	spanAttach     = "exp.attach"
	spanSimRun     = "sim.run"
	spanCollect    = "exp.collect"
	spanEncode     = "campaign.encode"
	spanDecode     = "campaign.decode"
	spanCacheGet   = "cache.get"
	spanCachePut   = "cache.put"
	spanJournal    = "journal.append"
	spanDispatch   = "wire.dispatch"
	spanRTT        = "wire.rtt"
	spanServer     = "wire.server"
)

// span is one timed interval at a layer boundary, in nanoseconds since
// the recorder's origin.
type span struct {
	job        uint64
	name       string
	start, end int64
}

// simCounts are the simulator's own counters, summed over traced jobs.
// They are simulated statistics: for a given plan they repeat exactly.
type simCounts struct {
	events, eventAllocs             uint64
	inputPkts, inputDrops, retryDrp int64
	aggCount, aggPackets            int64
	poolGets, poolNews              int64
}

// tracedJob is one traced job's identity and encoded result, kept for
// the check that the traced copy computed what Registry.RunJob computes.
type tracedJob struct {
	spec campaign.JobSpec
	blob []byte
}

// recorder keeps spans and counters in memory while on. Every method is
// safe for concurrent use.
type recorder struct {
	on     atomic.Bool
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts simCounts
	jobs   []tracedJob
	hits   int
	misses int
	shards map[int]bool // dispatch-relative shard indices delivered
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), shards: map[int]bool{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// add records a span and returns its index.
func (r *recorder) add(job uint64, name string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{job: job, name: name, start: start, end: end})
	return len(r.spans) - 1
}

// reset drops everything recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.jobs = nil, nil
	r.counts = simCounts{}
	r.hits, r.misses = 0, 0
	r.shards = map[int]bool{}
}

// total sums the durations of every span with the given name, in
// seconds.
func (r *recorder) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, s := range r.spans {
		if s.name == name {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// count reports how many spans have the given name.
func (r *recorder) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// lastEnd is the latest end of any recorded span.
func (r *recorder) lastEnd() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var end int64
	for _, s := range r.spans {
		if s.end > end {
			end = s.end
		}
	}
	return end
}

// tracedRun is a step-by-step copy of exp.Instance.Execute built only
// from public calls, with a span around each layer's call and the
// world's counters read at the end. While the recorder is off it runs
// the scenario's own Run unchanged.
func tracedRun(rec *recorder, spec *exp.Spec, plain func(campaign.Ctx) (*campaign.Metrics, error)) func(campaign.Ctx) (*campaign.Metrics, error) {
	return func(ctx campaign.Ctx) (*campaign.Metrics, error) {
		if !rec.on.Load() {
			return plain(ctx)
		}
		id := ctx.Seed
		jobStart := rec.now()
		job := rec.add(id, spanJob, jobStart, jobStart) // end filled below
		step := func(name string, fn func()) {
			t := rec.now()
			fn()
			rec.add(id, name, t, rec.now())
		}

		params := make(exp.Params, len(spec.Axes))
		jobParams := make([]campaign.Param, len(spec.Axes))
		for i, a := range spec.Axes {
			params[a.Name] = ctx.Param(a.Name)
			jobParams[i] = campaign.Param{Name: a.Name, Value: params[a.Name]}
		}
		var inst *exp.Instance
		var err error
		step(spanSpecBuild, func() { inst, err = spec.Build(params) })
		if err != nil {
			rec.finishJob(job)
			return nil, err
		}

		run := exp.RunConfig{Seed: ctx.Seed, Duration: ctx.Duration, Warmup: ctx.Warmup, Reps: 1, Workers: 1}
		if run.Duration <= 0 {
			run.Duration = campaign.DefaultDuration
		}
		if run.Warmup <= 0 {
			run.Warmup = campaign.DefaultWarmup
		}
		cfg := inst.Net
		cfg.Seed = run.Seed
		var w *exp.World
		step(spanWorldBuild, func() { w = exp.BuildWorld(cfg) })
		var rt *exp.Runtime
		step(spanAttach, func() {
			rt = exp.NewWorldRuntime(w)
			rt.AttachPhase(inst.Workloads, exp.PhaseStart)
		})
		step(spanSimRun, func() { w.Run(run.Warmup) })
		step(spanAttach, func() {
			rt.AttachPhase(inst.Workloads, exp.PhaseMeasure)
			rt.Arm()
		})
		step(spanSimRun, func() { w.Run(run.End()) })
		m := campaign.NewMetrics()
		step(spanCollect, func() {
			for _, p := range inst.Probes {
				p.Collect(m, rt)
			}
		})
		rec.finishJob(job)

		// Outside the job span: the codec cost of this job's result, and
		// the blob the identity check compares with Registry.RunJob's.
		var blob []byte
		step(spanEncode, func() { blob, err = campaign.EncodeMetrics(m) })
		if err != nil {
			return nil, err
		}
		step(spanDecode, func() { _, err = campaign.DecodeMetrics(blob) })
		if err != nil {
			return nil, err
		}
		c := worldCounts(w)
		rec.mu.Lock()
		rec.counts.add(c)
		rec.jobs = append(rec.jobs, tracedJob{
			spec: campaign.JobSpec{
				Scenario: spec.Name, Params: jobParams, Rep: ctx.Rep, Seed: ctx.Seed,
				Duration: ctx.Duration, Warmup: ctx.Warmup,
			},
			blob: blob,
		})
		rec.mu.Unlock()
		return m, nil
	}
}

// finishJob closes the job span opened at index job.
func (r *recorder) finishJob(job int) {
	end := r.now()
	r.mu.Lock()
	r.spans[job].end = end
	r.mu.Unlock()
}

// worldCounts reads a finished world's public counters.
func worldCounts(w *exp.World) simCounts {
	c := simCounts{events: w.Sim.EventsRun(), eventAllocs: w.Sim.EventsAllocated()}
	ps := pkt.PoolOf(w.Sim).Stats()
	c.poolGets, c.poolNews = ps.Gets, ps.News
	node := func(n *mac.Node) {
		c.inputPkts += n.InputPackets
		c.inputDrops += int64(n.InputDrops)
		c.retryDrp += int64(n.RetryDrops)
		for _, s := range n.Stations() {
			c.aggCount += s.AggCount
			c.aggPackets += s.AggPackets
		}
	}
	for _, cell := range w.Cells {
		node(cell.AP)
		for _, st := range cell.Stations {
			node(st.Node)
		}
	}
	return c
}

func (c *simCounts) add(o simCounts) {
	c.events += o.events
	c.eventAllocs += o.eventAllocs
	c.inputPkts += o.inputPkts
	c.inputDrops += o.inputDrops
	c.retryDrp += o.retryDrp
	c.aggCount += o.aggCount
	c.aggPackets += o.aggPackets
	c.poolGets += o.poolGets
	c.poolNews += o.poolNews
}

// Timing shims around the campaign's seams. Each forwards to the real
// implementation and records a span (and, where the seam decides
// something, a count) while the recorder is on.

type timedStore struct {
	rec   *recorder
	inner campaign.BlobStore
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t := s.rec.now()
	blob, ok := s.inner.Get(key)
	if s.rec.on.Load() {
		s.rec.add(0, spanCacheGet, t, s.rec.now())
		s.rec.mu.Lock()
		if ok {
			s.rec.hits++
		} else {
			s.rec.misses++
		}
		s.rec.mu.Unlock()
	}
	return blob, ok
}

func (s *timedStore) Put(key string, blob []byte) error {
	t := s.rec.now()
	err := s.inner.Put(key, blob)
	if s.rec.on.Load() {
		s.rec.add(0, spanCachePut, t, s.rec.now())
	}
	return err
}

type timedJournal struct {
	rec   *recorder
	inner campaign.JournalWriter
}

func (j *timedJournal) Append(key string, blob []byte) error {
	t := j.rec.now()
	err := j.inner.Append(key, blob)
	if j.rec.on.Load() {
		j.rec.add(0, spanJournal, t, j.rec.now())
	}
	return err
}

type timedDispatcher struct {
	rec   *recorder
	inner campaign.Dispatcher
}

func (d *timedDispatcher) Dispatch(ctx context.Context, jobs []campaign.JobSpec, deliver func(int, []byte) error) error {
	t := d.rec.now()
	err := d.inner.Dispatch(ctx, jobs, func(i int, blob []byte) error {
		if d.rec.on.Load() {
			d.rec.mu.Lock()
			d.rec.shards[i/shardSize] = true
			d.rec.mu.Unlock()
		}
		return deliver(i, blob)
	})
	if d.rec.on.Load() {
		d.rec.add(0, spanDispatch, t, d.rec.now())
	}
	return err
}

// timedTransport times each shard request from send until its response
// body is closed — the client-side round trip of one shard.
type timedTransport struct {
	rec   *recorder
	inner http.RoundTripper
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.rec.now()
	resp, err := t.inner.RoundTrip(req)
	if !t.rec.on.Load() || req.URL.Path != "/shard" {
		return resp, err
	}
	if err != nil {
		t.rec.add(0, spanRTT, start, t.rec.now())
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.rec.add(0, spanRTT, start, t.rec.now()) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedHandler times the shard worker's handling of each request.
type timedHandler struct {
	rec   *recorder
	inner http.Handler
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.rec.now()
	h.inner.ServeHTTP(w, r)
	if h.rec.on.Load() && r.URL.Path == "/shard" {
		h.rec.add(0, spanServer, start, h.rec.now())
	}
}

// tracedOnce sets up and runs one traced campaign, with a CPU profile
// written to prof when prof is non-nil, and derives its per-layer
// metrics (all but the CPU shares, which come from the profile).
func (b *bench) tracedOnce(prof io.Writer) (iteration, map[string]float64) {
	b.traced = true
	defer func() { b.traced = false }()
	e, err := b.setup()
	if err != nil {
		return b.setupFailed(err), map[string]float64{}
	}
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			e.close()
			return b.setupFailed(fmt.Errorf("profile: %w", err)), map[string]float64{}
		}
	}
	b.rec.reset()
	b.rec.on.Store(true)
	it := b.measure(e)
	b.rec.on.Store(false)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	vals := b.layerMetrics(it, e)
	if err := e.close(); err != nil && it.err == nil {
		it.err = fmt.Errorf("tear-down: %w", err)
	}
	return it, vals
}

// gcState is a snapshot of the Go runtime's collector accounting.
type gcState struct {
	cycles          uint32
	pauseNs, allocB uint64
	gcCPU, allCPU   float64 // runtime CPU classes, updated at each GC
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := gcState{cycles: ms.NumGC, pauseNs: ms.PauseTotalNs, allocB: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = s[1].Value.Float64()
	}
	return g
}

// layerMetrics derives the per-layer numbers of one traced campaign.
func (b *bench) layerMetrics(it iteration, e *env) map[string]float64 {
	rec, gc0, gc1 := b.rec, it.gc0, it.gc1
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	jobS := rec.total(spanJob)
	worldS := rec.total(spanWorldBuild)
	simS := rec.total(spanSimRun)
	execS := float64(it.execEnd-it.execStart) / 1e9

	rec.mu.Lock()
	c := rec.counts
	hits, misses, shards := rec.hits, rec.misses, len(rec.shards)
	var encBytes int
	for _, j := range rec.jobs {
		encBytes += len(j.blob)
	}
	rec.mu.Unlock()

	v := map[string]float64{
		"exp.spec_build_s":     rec.total(spanSpecBuild),
		"exp.world_build_s":    worldS,
		"exp.attach_s":         rec.total(spanAttach),
		"exp.collect_s":        rec.total(spanCollect),
		"exp.job_s":            jobS,
		"exp.world_build_frac": ratio(worldS, jobS),
		"sim.run_s":            simS,
		"sim.events":           float64(c.events),
		"sim.event_allocs":     float64(c.eventAllocs),
		"sim.ns_per_event":     ratio(simS*1e9, float64(c.events)),
		"mac.input_pkts":       float64(c.inputPkts),
		"mac.ns_per_pkt":       ratio(simS*1e9, float64(c.inputPkts)),
		"mac.input_drops":      float64(c.inputDrops),
		"mac.retry_drops":      float64(c.retryDrp),
		"mac.aggr_mean":        ratio(float64(c.aggPackets), float64(c.aggCount)),
		"pkt.pool_gets":        float64(c.poolGets),
		"pkt.pool_reuse":       ratio(float64(c.poolGets-c.poolNews), float64(c.poolGets)),

		"gc.cycles":   float64(gc1.cycles - gc0.cycles),
		"gc.pause_s":  float64(gc1.pauseNs-gc0.pauseNs) / 1e9,
		"gc.alloc_mb": float64(gc1.allocB-gc0.allocB) / (1 << 20),
		"gc.cpu_frac": ratio(gc1.gcCPU-gc0.gcCPU, gc1.allCPU-gc0.allCPU),

		"campaign.idle_frac":    math.Max(0, 1-ratio(jobS, float64(b.workers)*execS)),
		"campaign.aggregate_s":  float64(it.execEnd-min(rec.lastEnd(), it.execEnd)) / 1e9,
		"campaign.artifact_s":   float64(it.artifactEnd-it.execEnd) / 1e9,
		"campaign.encode_s":     rec.total(spanEncode),
		"campaign.encode_bytes": float64(encBytes),
		"campaign.decode_s":     rec.total(spanDecode),

		"cache.get_s":      rec.total(spanCacheGet),
		"cache.put_s":      rec.total(spanCachePut),
		"cache.hits":       float64(hits),
		"cache.misses":     float64(misses),
		"cache.hit_ratio":  ratio(float64(hits), float64(hits+misses)),
		"journal.append_s": rec.total(spanJournal),
		"wire.dispatch_s":  rec.total(spanDispatch),
	}
	if e.store != nil {
		v["cache.drops"] = float64(e.store.Drops())
	}
	if e.jw != nil {
		if st, err := os.Stat(e.jw.Path()); err == nil {
			v["journal.bytes"] = float64(st.Size())
		}
	}
	if n := rec.count(spanRTT); n > 0 {
		v["wire.requests"] = float64(n)
		v["wire.shard_rtt_ms"] = rec.total(spanRTT) * 1e3 / float64(n)
		v["wire.useful_ratio"] = float64(shards) / float64(n)
	}
	if n := rec.count(spanServer); n > 0 {
		v["wire.server_ms"] = rec.total(spanServer) * 1e3 / float64(n)
	}
	return v
}
