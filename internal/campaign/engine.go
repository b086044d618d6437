package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Default sizing shared by every execution path — campaign Plans and the
// standalone runners' RunConfig both fill zero fields from these, so the
// "scaled-down interactive defaults" exist in exactly one place.
const (
	DefaultReps     = 3
	DefaultDuration = 10 * sim.Second
	DefaultWarmup   = 2 * sim.Second
	DefaultSeed     = 42
)

// Plan selects and sizes a campaign.
type Plan struct {
	// Scenarios names the scenarios to run, in the given order; empty
	// means every registered scenario in registration order.
	Scenarios []string

	// Overrides replaces the listed axes' value sets (a sweep). Each
	// named axis must exist on at least one selected scenario; scenarios
	// without it are unaffected.
	Overrides map[string][]string

	Reps     int      // repetitions per grid point (default 3)
	Duration sim.Time // measured interval per repetition (default 10 s)
	Warmup   sim.Time // settling time excluded from measurement (default 2 s)
	BaseSeed uint64   // campaign base seed (default 42)
	Workers  int      // worker goroutines (default GOMAXPROCS)

	// Progress, if set, is called after each completed run with the
	// number of finished runs and the matrix size. Calls may come from
	// any worker.
	Progress func(done, total int)

	// OnProgress, if set, receives richer snapshots than Progress:
	// cache-hit versus simulated counts alongside done/total. Calls may
	// come from any worker.
	OnProgress func(ProgressInfo)

	// Cache, if set, is the content-addressed result store: Execute
	// consults it (under Fingerprint) before dispatching each job and
	// writes completed results back. A job hits when an earlier run had
	// the same scenario, parameters, timing, repetition and seed. Seeds
	// derive from the grid-point index (DeriveSeed), so a rerun of the
	// same plan, or one with more Reps, reuses every earlier job, and
	// appending values to the first axis keeps every earlier point.
	// Appending to any later axis renumbers the grid: only points whose
	// preceding axes sit at their first value keep their seeds and hit;
	// the rest simulate afresh.
	Cache BlobStore

	// Journal, if set, receives every completed cell as it finishes —
	// the checkpoint stream an interrupted campaign resumes from.
	Journal JournalWriter

	// Resume maps cache keys to encoded Metrics blobs replayed from a
	// previous run's journal; matching cells are not re-simulated.
	Resume map[string][]byte

	// Fingerprint identifies the code that produces results, scoping
	// cache keys so results never leak across code changes. Empty means
	// BuildFingerprint() when the cache, journal or resume map is in
	// use.
	Fingerprint string

	// Dispatch, if set, executes the simulated jobs remotely instead of
	// on the local worker pool (cache and resume hits are still
	// resolved locally). A Dispatch error matching ErrDegraded does not
	// fail the campaign: the jobs it never delivered run on the local
	// pool instead.
	Dispatch Dispatcher

	// Context, if set, bounds the campaign: when it is cancelled the
	// engine stops scheduling new jobs, drains the ones in flight
	// (journaling them as usual) and returns an error matching
	// ErrInterrupted — the campaign is resumable from its journal. Nil
	// means context.Background().
	Context context.Context
}

func (p *Plan) fill() {
	if p.Reps <= 0 {
		p.Reps = DefaultReps
	}
	if p.Duration <= 0 {
		p.Duration = DefaultDuration
	}
	if p.Warmup <= 0 {
		p.Warmup = DefaultWarmup
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = DefaultSeed
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Fingerprint == "" && (p.Cache != nil || p.Journal != nil || len(p.Resume) > 0) {
		p.Fingerprint = BuildFingerprint()
	}
	if p.Context == nil {
		p.Context = context.Background()
	}
}

// Result is a completed campaign: one aggregated Cell per (scenario,
// grid point), in deterministic plan order. Marshalling a Result produces
// byte-identical artifacts for any worker count.
type Result struct {
	BaseSeed    uint64  `json:"base_seed"`
	Reps        int     `json:"reps"`
	DurationSec float64 `json:"duration_sec"`
	WarmupSec   float64 `json:"warmup_sec"`
	Cells       []*Cell `json:"cells"`

	// Runs is the executed matrix size (cells × reps).
	Runs int `json:"runs"`

	// Stats reports how the matrix was satisfied (cache hits versus
	// simulated runs). It is excluded from the JSON artifact so warm
	// and cold runs stay byte-identical.
	Stats ExecStats `json:"-"`
}

// job is one schedulable run: a repetition of a scenario at a grid point.
type job struct {
	sc   *Scenario
	ctx  Ctx
	spec JobSpec
	cell int // index into the cell table
	rep  int
}

// Execute expands the plan into a (scenario, point, repetition) matrix,
// shards it across the worker pool, and aggregates. The first run error
// (in matrix order) aborts the campaign's result.
func (r *Registry) Execute(p Plan) (*Result, error) {
	p.fill()
	selected := r.scenarios
	if len(p.Scenarios) > 0 {
		selected = make([]*Scenario, 0, len(p.Scenarios))
		for _, name := range p.Scenarios {
			sc := r.Get(name)
			if sc == nil {
				return nil, fmt.Errorf("campaign: unknown scenario %q (have %v)", name, r.Names())
			}
			selected = append(selected, sc)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("campaign: no scenarios registered")
	}
	// Every override must name an axis of at least one selected scenario;
	// scenarios without the axis simply don't sweep it.
	for name := range p.Overrides {
		found := false
		var known []string
		for _, sc := range selected {
			for _, a := range sc.Axes {
				known = append(known, a.Name)
				if a.Name == name {
					found = true
				}
			}
		}
		if !found {
			sort.Strings(known)
			return nil, fmt.Errorf("campaign: unknown axis %q (have %v)", name, known)
		}
	}

	// Expand the matrix up front: the full job list, with seeds derived
	// from coordinates, exists before any worker starts.
	type cellKey struct {
		sc     *Scenario
		params []Param
		seeds  []uint64
	}
	var cells []cellKey
	var jobs []job
	for _, sc := range selected {
		points, err := expand(sc.Axes, p.Overrides)
		if err != nil {
			return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
		}
		for pi, point := range points {
			params := make([]Param, len(sc.Axes))
			pm := make(map[string]string, len(sc.Axes))
			for ai, a := range sc.Axes {
				params[ai] = Param{Name: a.Name, Value: point[ai]}
				pm[a.Name] = point[ai]
			}
			ck := cellKey{sc: sc, params: params, seeds: make([]uint64, p.Reps)}
			cellIdx := len(cells)
			for rep := 0; rep < p.Reps; rep++ {
				seed := DeriveSeed(p.BaseSeed, sc.Name, pi, rep)
				ck.seeds[rep] = seed
				jobs = append(jobs, job{
					sc: sc,
					ctx: Ctx{
						Seed: seed, Rep: rep,
						Duration: p.Duration, Warmup: p.Warmup,
						params: pm,
					},
					spec: JobSpec{
						Scenario: sc.Name, Params: params, Point: pi,
						Rep: rep, Seed: seed,
						Duration: p.Duration, Warmup: p.Warmup,
					},
					cell: cellIdx,
					rep:  rep,
				})
			}
			cells = append(cells, ck)
		}
	}

	// Resolve cache and resume hits first: cells already computed — by a
	// previous campaign via the content-addressed cache, or by this
	// campaign's interrupted predecessor via the journal — decode
	// straight into the result matrix and never reach a worker. A blob
	// that fails to decode is a miss (recompute), never an error.
	outs := make([]*Metrics, len(jobs))
	errs := make([]error, len(jobs))
	keys := make([]string, len(jobs))
	needKeys := p.Cache != nil || p.Journal != nil || len(p.Resume) > 0
	st := ExecStats{Total: len(jobs)}
	var miss []int

	// mu guards the completion state (stats, journal) that both the
	// local pool and a remote dispatcher's delivery goroutines touch.
	var mu sync.Mutex
	var journalErr error
	appendJournal := func(i int, blob []byte) {
		if p.Journal == nil || journalErr != nil {
			return
		}
		if err := p.Journal.Append(keys[i], blob); err != nil {
			journalErr = err
		}
	}
	progress := func() {
		if p.Progress != nil {
			p.Progress(st.FromCache+st.Simulated, st.Total)
		}
		if p.OnProgress != nil {
			p.OnProgress(ProgressInfo{
				Done: st.FromCache + st.Simulated, Total: st.Total,
				FromCache: st.FromCache, Simulated: st.Simulated,
			})
		}
	}

	for i := range jobs {
		if needKeys {
			keys[i] = jobs[i].spec.CacheKey(p.Fingerprint)
		}
		if len(p.Resume) > 0 {
			if blob, ok := p.Resume[keys[i]]; ok {
				if m, err := DecodeMetrics(blob); err == nil {
					outs[i] = m
					st.FromCache++
					progress()
					continue
				}
			}
		}
		if p.Cache != nil {
			if blob, ok := p.Cache.Get(keys[i]); ok {
				if m, err := DecodeMetrics(blob); err == nil {
					outs[i] = m
					st.FromCache++
					// Journal the hit too: a later -resume must see every
					// completed cell, not only the simulated ones.
					appendJournal(i, blob)
					progress()
					continue
				}
			}
		}
		miss = append(miss, i)
	}

	// complete records one simulated result: write-back to the cache
	// (best-effort) and the journal, then progress. Any worker may call
	// it.
	complete := func(i int, m *Metrics, err error) {
		mu.Lock()
		defer mu.Unlock()
		outs[i], errs[i] = m, err
		if err != nil {
			progress()
			return
		}
		st.Simulated++
		if p.Cache != nil || p.Journal != nil {
			if blob, encErr := EncodeMetrics(m); encErr == nil {
				if p.Cache != nil {
					p.Cache.Put(keys[i], blob)
				}
				appendJournal(i, blob)
			}
		}
		progress()
	}

	// runLocal shards a job-index list across the local pool. Results
	// land in a slice indexed by job position, so completion order is
	// irrelevant. A failed job stops further dispatch (in-flight runs
	// drain) — a long campaign should not burn every core before
	// reporting a broken cell. Context cancellation likewise stops
	// scheduling and drains, so every finished cell reaches the journal.
	ctx := p.Context
	runLocal := func(indices []int) {
		if len(indices) == 0 {
			return
		}
		var failed atomic.Bool
		next := make(chan int)
		var wg sync.WaitGroup
		workers := p.Workers
		if workers > len(indices) {
			workers = len(indices)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					m, err := runJob(jobs[i])
					if err != nil {
						failed.Store(true)
					}
					complete(i, m, err)
				}
			}()
		}
	feed:
		for _, i := range indices {
			if failed.Load() {
				break
			}
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}

	switch {
	case len(miss) == 0:
		// Everything came from the cache or the journal.
	case p.Dispatch != nil:
		// Fan the remaining jobs out to remote shard workers.
		specs := make([]JobSpec, len(miss))
		for k, i := range miss {
			specs[k] = jobs[i].spec
		}
		err := p.Dispatch.Dispatch(ctx, specs, func(k int, blob []byte) error {
			m, derr := DecodeMetrics(blob)
			if derr != nil {
				return fmt.Errorf("job %s: %w", specs[k].Label(), derr)
			}
			complete(miss[k], m, nil)
			return nil
		})
		switch {
		case err == nil:
		case errors.Is(err, ErrDegraded) && ctx.Err() == nil:
			// Every remote worker is unhealthy but the abandoned jobs
			// were never delivered — run them locally rather than
			// failing a campaign the machine at hand can finish.
			mu.Lock()
			var left []int
			for _, i := range miss {
				if outs[i] == nil && errs[i] == nil {
					left = append(left, i)
				}
			}
			mu.Unlock()
			runLocal(left)
		case ctx.Err() != nil:
			return nil, fmt.Errorf("campaign: %w (completed cells are journaled; rerun with -resume)", ErrInterrupted)
		default:
			return nil, fmt.Errorf("campaign: remote dispatch: %w", err)
		}
	default:
		runLocal(miss)
	}

	if journalErr != nil {
		return nil, fmt.Errorf("campaign: journal: %w", journalErr)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("campaign: %w (completed cells are journaled; rerun with -resume)", ErrInterrupted)
	}
	for i, err := range errs {
		if err != nil {
			j := jobs[i]
			return nil, fmt.Errorf("campaign: scenario %q rep %d (seed %d): %w",
				j.sc.Name, j.rep, j.ctx.Seed, err)
		}
	}

	// Aggregate in matrix order — deterministic fold, worker-independent.
	res := &Result{
		BaseSeed: p.BaseSeed, Reps: p.Reps,
		DurationSec: p.Duration.Seconds(), WarmupSec: p.Warmup.Seconds(),
		Runs: len(jobs), Stats: st,
	}
	byCell := make([][]*Metrics, len(cells))
	for i := range byCell {
		byCell[i] = make([]*Metrics, 0, p.Reps)
	}
	for i, j := range jobs {
		byCell[j.cell] = append(byCell[j.cell], outs[i])
	}
	for ci, ck := range cells {
		res.Cells = append(res.Cells, aggregateCell(ck.sc, ck.params, ck.seeds, byCell[ci]))
	}
	return res, nil
}

// runJob executes one run of the expanded matrix.
func runJob(j job) (*Metrics, error) { return runScenario(j.sc, j.ctx) }

// runScenario executes one scenario repetition, converting a panic in
// scenario code into an error so a bad cell cannot take down the whole
// campaign process.
func runScenario(sc *Scenario, ctx Ctx) (m *Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	m, err = sc.Run(ctx)
	if err == nil && m == nil {
		err = fmt.Errorf("scenario returned no metrics")
	}
	return m, err
}

// Split divides a worker budget (0 or less means GOMAXPROCS) between n
// concurrent tasks and the parallelism available inside each task:
// outer tasks run at once, each allowed inner workers, with
// outer×inner staying near the budget. Use it when parallel work nests
// — e.g. experiment cells that themselves parallelise repetitions — so
// the user's worker cap bounds total concurrency instead of being
// applied multiplicatively at every level.
func Split(workers, n int) (outer, inner int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer = workers
	if outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = workers / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// Map runs fn(0..n-1) across a pool of workers (0 or less means
// GOMAXPROCS) and returns the results in index order. It is the
// lightweight sharding primitive the experiment runners use to
// parallelise repetitions: results are positionally stable, so callers
// can fold them in a deterministic order regardless of worker count.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
