package campaign_test

// Engine-level tests of the caching and checkpoint/resume layer, in an
// external test package so they can compose the campaign engine with
// its cache and journal subpackages the way cmd/campaign does.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/campaign"
	"repro/internal/campaign/cache"
	"repro/internal/campaign/journal"
	"repro/internal/sim"
	"repro/internal/stats"
)

// counting wraps a registry-facing scenario with an execution counter
// so tests can assert which cells were simulated versus cached.
func synthetic(runs *int) *campaign.Registry {
	r := campaign.NewRegistry()
	r.Register(&campaign.Scenario{
		Name: "alpha",
		Desc: "seed-dependent scalar and distribution",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"a", "b", "c"}},
			{Name: "rate", Values: []string{"10", "50"}},
		},
		Run: func(ctx campaign.Ctx) (*campaign.Metrics, error) {
			if runs != nil {
				*runs++ // races don't matter at Workers: 1
			}
			rate, err := strconv.Atoi(ctx.Param("rate"))
			if err != nil {
				return nil, err
			}
			m := campaign.NewMetrics()
			m.Add("seed-lo", float64(ctx.Seed%1000))
			m.Add("rate-x2", float64(2*rate))
			var s stats.Sample
			x := ctx.Seed
			for i := 0; i < 24; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				s.Add(float64(x % 997))
			}
			m.AddSample("dist", &s)
			return m, nil
		},
	})
	return r
}

func basePlan() campaign.Plan {
	return campaign.Plan{
		Reps: 3, Duration: 2 * sim.Second, Warmup: sim.Second,
		BaseSeed: 17, Workers: 1, Fingerprint: "fp-A",
	}
}

func artifact(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdWarmByteIdentity: a second run against a populated cache
// simulates nothing and produces byte-identical artifacts.
func TestColdWarmByteIdentity(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	p := basePlan()
	p.Cache = store

	cold, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	coldRuns := runs
	if coldRuns != cold.Runs || cold.Stats.Simulated != cold.Runs || cold.Stats.FromCache != 0 {
		t.Fatalf("cold: runs=%d stats=%+v", coldRuns, cold.Stats)
	}

	warm, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if runs != coldRuns {
		t.Fatalf("warm run simulated %d cells", runs-coldRuns)
	}
	if warm.Stats.FromCache != warm.Runs || warm.Stats.Simulated != 0 {
		t.Fatalf("warm stats = %+v", warm.Stats)
	}
	if !bytes.Equal(artifact(t, cold), artifact(t, warm)) {
		t.Fatal("warm artifact differs from cold")
	}
}

// TestSupersetReusesSharedCells: extending an axis keeps the cache hits
// for the unchanged points when the point indices line up (values
// appended at the end).
func TestSupersetReusesSharedCells(t *testing.T) {
	store, _ := cache.Open(t.TempDir())
	var runs int
	p := basePlan()
	p.Cache = store
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50"}}
	if _, err := synthetic(&runs).Execute(p); err != nil {
		t.Fatal(err)
	}
	first := runs
	// Append a value to the swept axis: the original points keep their
	// (point index, seed) coordinates, so their cells hit.
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50", "90"}}
	super, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs - first; got != p.Reps {
		t.Fatalf("superset simulated %d runs, want %d (one new point)", got, p.Reps)
	}
	if super.Stats.FromCache != 2*p.Reps {
		t.Fatalf("superset cache hits = %d, want %d", super.Stats.FromCache, 2*p.Reps)
	}
}

// TestSupersetReuseFollowsPointIndex pins what the Plan.Cache comment
// promises: seeds follow the grid-point index, so more reps and values
// appended to the first axis reuse every earlier job, while appending
// to the last axis reuses only the points whose first axis sits at its
// first value.
func TestSupersetReuseFollowsPointIndex(t *testing.T) {
	for _, tc := range []struct {
		name       string
		reps       int
		scheme     []string
		rate       []string
		wantCached int
	}{
		{"more reps", 5, []string{"a", "b"}, []string{"10", "50"}, 4 * 3},
		{"first axis", 3, []string{"a", "b", "c"}, []string{"10", "50"}, 4 * 3},
		{"last axis", 3, []string{"a", "b"}, []string{"10", "50", "90"}, 2 * 3},
	} {
		store, _ := cache.Open(t.TempDir())
		p := basePlan()
		p.Cache = store
		p.Overrides = map[string][]string{"scheme": {"a", "b"}, "rate": {"10", "50"}}
		if _, err := synthetic(nil).Execute(p); err != nil {
			t.Fatal(err)
		}
		p.Reps = tc.reps
		p.Overrides = map[string][]string{"scheme": tc.scheme, "rate": tc.rate}
		res, err := synthetic(nil).Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.FromCache != tc.wantCached {
			t.Errorf("%s: %d of %d runs from cache, want %d",
				tc.name, res.Stats.FromCache, res.Runs, tc.wantCached)
		}
	}
}

// TestFingerprintInvalidation: results cached under one code
// fingerprint are invisible to another.
func TestFingerprintInvalidation(t *testing.T) {
	store, _ := cache.Open(t.TempDir())
	var runs int
	p := basePlan()
	p.Cache = store
	if _, err := synthetic(&runs).Execute(p); err != nil {
		t.Fatal(err)
	}
	first := runs
	p.Fingerprint = "fp-B" // "the code changed"
	res, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FromCache != 0 || runs != 2*first {
		t.Fatalf("stale fingerprint leaked: stats=%+v runs=%d", res.Stats, runs)
	}
}

// TestCorruptedEntriesRecompute: damaging cached entries on disk makes
// the next run recompute them — same artifact, no crash.
func TestCorruptedEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	store, _ := cache.Open(dir)
	var runs int
	p := basePlan()
	p.Cache = store
	cold, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	coldRuns := runs

	// Vandalize every entry: truncate some, bit-flip others.
	i := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return nil
		}
		raw, _ := os.ReadFile(path)
		if i%2 == 0 && len(raw) > 4 {
			raw = raw[:len(raw)/2]
		} else if len(raw) > 0 {
			raw[len(raw)-1] ^= 0xFF
		}
		os.WriteFile(path, raw, 0o644)
		i++
		return nil
	})
	if i == 0 {
		t.Fatal("no cache entries found to corrupt")
	}

	warm, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2*coldRuns || warm.Stats.Simulated != warm.Runs {
		t.Fatalf("corrupted entries not recomputed: stats=%+v", warm.Stats)
	}
	if !bytes.Equal(artifact(t, cold), artifact(t, warm)) {
		t.Fatal("artifact differs after corruption recovery")
	}
	// And the rewritten entries serve the next run.
	res, err := synthetic(&runs).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FromCache != res.Runs {
		t.Fatalf("repaired cache not hit: %+v", res.Stats)
	}
}

// TestResumeMidCampaign: interrupt a campaign after a prefix of cells,
// resume from the journal at several worker counts, and require the
// resumed artifact byte-identical to an uninterrupted run.
func TestResumeMidCampaign(t *testing.T) {
	ref, err := synthetic(nil).Execute(basePlan())
	if err != nil {
		t.Fatal(err)
	}
	want := artifact(t, ref)

	for _, workers := range []int{1, 4, 8} {
		dir := t.TempDir()
		jpath := filepath.Join(dir, "c.journal")

		// "Interrupted" first run: journal only a prefix by aborting via
		// a scenario error after 7 completions. Progress of an aborted
		// Execute is not deterministic across workers, but the journal's
		// validity is what matters.
		var count int
		r := campaign.NewRegistry()
		inner := synthetic(nil).Get("alpha")
		r.Register(&campaign.Scenario{
			Name: "alpha", Desc: inner.Desc, Axes: inner.Axes,
			Run: func(ctx campaign.Ctx) (*campaign.Metrics, error) {
				if count >= 7 { // Workers: 1 below, so no race
					panic("simulated crash")
				}
				count++
				return inner.Run(ctx)
			},
		})
		w, err := journal.Create(jpath)
		if err != nil {
			t.Fatal(err)
		}
		p := basePlan()
		p.Journal = w
		if _, err := r.Execute(p); err == nil {
			t.Fatal("interrupted campaign reported success")
		}
		w.Close()

		// Resume: replay the journal, schedule the rest.
		replayed, n, err := journal.Replay(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if n != 7 {
			t.Fatalf("journal kept %d cells, want 7", n)
		}
		w2, err := journal.Create(jpath)
		if err != nil {
			t.Fatal(err)
		}
		p2 := basePlan()
		p2.Workers = workers
		p2.Journal = w2
		p2.Resume = replayed
		res, err := synthetic(nil).Execute(p2)
		if err != nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, err)
		}
		w2.Close()
		if res.Stats.FromCache != 7 || res.Stats.Simulated != res.Runs-7 {
			t.Fatalf("workers=%d: resume stats = %+v", workers, res.Stats)
		}
		if !bytes.Equal(artifact(t, res), want) {
			t.Fatalf("workers=%d: resumed artifact differs from uninterrupted run", workers)
		}

		// The journal now holds every cell: a second resume simulates
		// nothing.
		replayed2, _, err := journal.Replay(jpath)
		if err != nil {
			t.Fatal(err)
		}
		p3 := basePlan()
		p3.Resume = replayed2
		res2, err := synthetic(nil).Execute(p3)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Stats.Simulated != 0 {
			t.Fatalf("workers=%d: full journal still simulated %d cells",
				workers, res2.Stats.Simulated)
		}
		if !bytes.Equal(artifact(t, res2), want) {
			t.Fatalf("workers=%d: journal-only artifact differs", workers)
		}
	}
}

// TestProgressReportsCacheSplit: OnProgress distinguishes cached from
// simulated cells and sums to done.
func TestProgressReportsCacheSplit(t *testing.T) {
	store, _ := cache.Open(t.TempDir())
	p := basePlan()
	p.Cache = store
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50"}}
	if _, err := synthetic(nil).Execute(p); err != nil {
		t.Fatal(err)
	}
	// Second run over a superset: 6 cached + 3 fresh.
	p.Overrides = map[string][]string{"scheme": {"a"}, "rate": {"10", "50", "90"}}
	var last campaign.ProgressInfo
	calls := 0
	p.OnProgress = func(pi campaign.ProgressInfo) {
		calls++
		if pi.FromCache+pi.Simulated != pi.Done {
			t.Errorf("cache split %d+%d != done %d", pi.FromCache, pi.Simulated, pi.Done)
		}
		last = pi
	}
	res, err := synthetic(nil).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Runs {
		t.Fatalf("progress calls = %d, want %d", calls, res.Runs)
	}
	if last.Done != res.Runs || last.FromCache != 6 || last.Simulated != 3 {
		t.Fatalf("final progress = %+v", last)
	}
}
