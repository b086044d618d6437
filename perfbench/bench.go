package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/cache"
	"repro/internal/campaign/journal"
	"repro/internal/campaign/wire"
	"repro/internal/exp"
	"repro/internal/sim"
)

// shardSize is the number of jobs per shard request the loopback client
// sends (wire.Client's own default, stated so shard counts are known).
const shardSize = 8

// bench runs one workload's iterations: each is a timed set-up followed
// by one timed campaign (Registry.Execute plus writing the artifact).
type bench struct {
	w       *workload
	seed    uint64
	workers int    // local pool and shard-worker parallelism
	tmp     string // parent of each iteration's scratch directory
	fp      string // code fingerprint for cache keys and the wire protocol

	// traced selects the registry whose scenarios run the traced copy of
	// Instance.Execute while rec is on.
	traced bool
	rec    *recorder

	// Per-job host time of the measured campaigns, taken around
	// Scenario.Run (on the shard worker's side for remote jobs).
	recording atomic.Bool
	jobMu     sync.Mutex
	jobMs     []float64
	okJobs    atomic.Int64
}

func newBench(w *workload, seed uint64, tmp string) *bench {
	return &bench{
		w: w, seed: seed, workers: runtime.NumCPU(), tmp: tmp,
		fp: campaign.BuildFingerprint(), rec: newRecorder(),
	}
}

// env is one iteration's set-up: the registry, the plan and, for remote
// workloads, the pre-filled cache, the journal and the loopback shard
// worker.
type env struct {
	reg  *campaign.Registry
	plan campaign.Plan
	dir  string

	store  *cache.Store
	jw     *journal.Writer
	srv    *http.Server
	tr     *http.Transport
	served chan struct{}
}

// registry registers the workload's Specs with every Run wrapped by the
// job timer, and in traced mode replaced by the traced copy.
func (b *bench) registry() *campaign.Registry {
	reg := campaign.NewRegistry()
	for _, spec := range b.w.specs() {
		sc := spec.Scenario()
		run := sc.Run
		if b.traced {
			run = tracedRun(b.rec, spec, run)
		}
		sc.Run = b.timeJob(run)
		reg.Register(sc)
	}
	return reg
}

func (b *bench) timeJob(run func(campaign.Ctx) (*campaign.Metrics, error)) func(campaign.Ctx) (*campaign.Metrics, error) {
	return func(ctx campaign.Ctx) (*campaign.Metrics, error) {
		if !b.recording.Load() {
			return run(ctx)
		}
		t := time.Now()
		m, err := run(ctx)
		ms := float64(time.Since(t)) / 1e6
		if err == nil {
			b.okJobs.Add(1)
			b.jobMu.Lock()
			b.jobMs = append(b.jobMs, ms)
			b.jobMu.Unlock()
		}
		return m, err
	}
}

// setup builds one iteration's environment. For a remote workload it
// fills a fresh on-disk cache with the plan's first repetition (so the
// measured plan finds exactly half its jobs cached) and starts a shard
// worker on a loopback port.
func (b *bench) setup() (e *env, err error) {
	e = &env{reg: b.registry(), plan: b.w.plan(b.seed)}
	e.plan.Workers = b.workers
	if e.dir, err = os.MkdirTemp(b.tmp, b.w.name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	if !b.w.remote {
		return e, nil
	}
	if e.store, err = cache.Open(filepath.Join(e.dir, "cache")); err != nil {
		return e, err
	}
	pre := e.plan
	pre.Reps = 1
	pre.Cache = e.store
	pre.Fingerprint = b.fp
	if _, err = e.reg.Execute(pre); err != nil {
		return e, fmt.Errorf("pre-filling the cache: %w", err)
	}
	if e.jw, err = journal.Create(filepath.Join(e.dir, "journal")); err != nil {
		return e, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	// cmd/campaign copies the plan's fingerprint into wire.Client before
	// Execute fills it, so `campaign run -remote` without -fingerprint is
	// refused with 409. Setting every fingerprint explicitly sidesteps
	// that defect (see NOTES.md).
	worker := &wire.Server{Registry: e.reg, Fingerprint: b.fp, Workers: b.workers}
	var h http.Handler = worker.Handler()
	e.tr = &http.Transport{MaxConnsPerHost: 1}
	var rt http.RoundTripper = e.tr
	if b.traced {
		h = &timedHandler{rec: b.rec, inner: h}
		rt = &timedTransport{rec: b.rec, inner: rt}
	}
	e.srv = &http.Server{Handler: h}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	client := &wire.Client{
		Workers:     []string{"http://" + ln.Addr().String()},
		Fingerprint: b.fp,
		ShardSize:   shardSize,
		HTTP:        &http.Client{Transport: rt},
	}
	e.plan.Fingerprint = b.fp
	e.plan.Cache, e.plan.Journal, e.plan.Dispatch = e.store, e.jw, client
	if b.traced {
		e.plan.Cache = &timedStore{rec: b.rec, inner: e.store}
		e.plan.Journal = &timedJournal{rec: b.rec, inner: e.jw}
		e.plan.Dispatch = &timedDispatcher{rec: b.rec, inner: client}
	}
	return e, nil
}

// close stops the shard worker, closes the journal and removes the
// iteration's directory.
func (e *env) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(e.srv.Shutdown(ctx))
		cancel()
		e.tr.CloseIdleConnections()
		<-e.served
	}
	if e.jw != nil {
		keep(e.jw.Close())
	}
	keep(os.RemoveAll(e.dir))
	return first
}

// iteration is one measured campaign.
type iteration struct {
	setupS, wallS, cpuS float64
	peakRSSMB           float64 // resident-set high-water mark during the campaign
	gc0, gc1            gcState // collector accounting before and after the campaign
	jobs, failed        int
	digest              string
	jobMs               []float64 // host time of each job that succeeded
	result              *campaign.Result
	err                 error

	// Recorder-clock bounds of Execute and the artifact write, for the
	// traced run's campaign-level spans.
	execStart, execEnd, artifactEnd int64
}

// measure runs the campaign once: Execute, then the artifact write,
// timed together as wall and CPU time.
func (b *bench) measure(e *env) iteration {
	it := iteration{jobs: planJobs(e.reg, e.plan)}
	b.okJobs.Store(0)
	b.jobMu.Lock()
	b.jobMs = nil
	b.jobMu.Unlock()
	// Hand the set-up's and the previous campaign's garbage back to the
	// OS, so the high-water mark restarts from the live heap.
	debug.FreeOSMemory()
	resetPeakRSS()
	it.gc0 = readGC()
	b.recording.Store(true)
	t0, c0 := time.Now(), cpuSeconds()
	it.execStart = b.rec.now()
	res, err := e.reg.Execute(e.plan)
	it.execEnd = b.rec.now()
	var buf bytes.Buffer
	if err == nil {
		if err = res.WriteJSON(&buf); err == nil {
			err = os.WriteFile(filepath.Join(e.dir, "artifact.json"), buf.Bytes(), 0o644)
		}
	}
	it.artifactEnd = b.rec.now()
	it.wallS = time.Since(t0).Seconds()
	it.cpuS = cpuSeconds() - c0
	it.peakRSSMB = peakRSSMB()
	it.gc1 = readGC()
	b.recording.Store(false)
	b.jobMu.Lock()
	it.jobMs = b.jobMs
	b.jobMu.Unlock()

	it.result, it.err = res, err
	if err != nil {
		it.failed = it.jobs - int(b.okJobs.Load())
		if it.failed <= 0 {
			it.failed = it.jobs
		}
		return it
	}
	sum := sha256.Sum256(buf.Bytes())
	it.digest = hex.EncodeToString(sum[:])
	return it
}

// once runs one set-up plus measured campaign, then tears down.
func (b *bench) once() iteration {
	t := time.Now()
	e, err := b.setup()
	setupS := time.Since(t).Seconds()
	if err != nil {
		it := b.setupFailed(err)
		it.setupS = setupS
		return it
	}
	it := b.measure(e)
	it.setupS = setupS
	if err := e.close(); err != nil && it.err == nil {
		it.err = fmt.Errorf("tear-down: %w", err)
	}
	return it
}

// setupFailed is the iteration a failed set-up leaves: every job of the
// plan attempted and failed.
func (b *bench) setupFailed(err error) iteration {
	n := planJobs(b.registry(), b.w.plan(b.seed))
	return iteration{jobs: n, failed: n, err: fmt.Errorf("set-up: %w", err)}
}

// planJobs counts the jobs a plan expands to: every selected scenario's
// grid, with the plan's axis overrides, times the repetitions.
func planJobs(reg *campaign.Registry, p campaign.Plan) int {
	names := p.Scenarios
	if len(names) == 0 {
		names = reg.Names()
	}
	reps := p.Reps
	if reps <= 0 {
		reps = campaign.DefaultReps
	}
	total := 0
	for _, name := range names {
		sc := reg.Get(name)
		if sc == nil {
			continue
		}
		points := 1
		for _, a := range sc.Axes {
			if ov, ok := p.Overrides[a.Name]; ok {
				points *= len(ov)
			} else {
				points *= len(a.Values)
			}
		}
		total += points * reps
	}
	return total
}

// reference runs the measured plan the plain way — stock registry,
// local pool, no cache, journal or remote worker — and returns its
// artifact digest: what every measured artifact must equal.
func (b *bench) reference() (string, error) {
	return plainDigest(b.w.specs(), b.w.plan(b.seed), b.workers)
}

// canaryPlan is a known-answer campaign: every paper scenario's default
// grid, one short repetition, at the default seed. Its artifact digest is
// pinned, so a run checks the program's outputs whatever its own seed.
func canaryPlan() campaign.Plan {
	return campaign.Plan{
		BaseSeed: campaign.DefaultSeed, Reps: 1,
		Duration: 500 * sim.Millisecond, Warmup: 200 * sim.Millisecond,
	}
}

// plainDigest executes p on a stock registry of specs and returns the
// SHA-256 of its JSON artifact.
func plainDigest(specs []*exp.Spec, p campaign.Plan, workers int) (string, error) {
	reg := campaign.NewRegistry()
	for _, spec := range specs {
		spec.Register(reg)
	}
	p.Workers = workers
	res, err := reg.Execute(p)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// checkTracedBlobs re-runs every traced job through Registry.RunJob on
// a stock registry and reports the jobs whose encoded result differs
// from the traced copy's — proof that the trace measured the same
// program.
func (b *bench) checkTracedBlobs() (checked, mismatched int, err error) {
	reg := campaign.NewRegistry()
	for _, spec := range b.w.specs() {
		spec.Register(reg)
	}
	b.rec.mu.Lock()
	jobs := append([]tracedJob(nil), b.rec.jobs...)
	b.rec.mu.Unlock()
	errs := campaign.Map(len(jobs), b.workers, func(i int) error {
		m, err := reg.RunJob(jobs[i].spec)
		if err != nil {
			return err
		}
		blob, err := campaign.EncodeMetrics(m)
		if err != nil {
			return err
		}
		if !bytes.Equal(blob, jobs[i].blob) {
			return errMismatch
		}
		return nil
	})
	for _, e := range errs {
		switch {
		case e == errMismatch:
			mismatched++
		case e != nil && err == nil:
			err = e
		}
	}
	return len(jobs), mismatched, err
}

var errMismatch = fmt.Errorf("encoded result differs")
