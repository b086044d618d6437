// Command perfbench is the repository's end-to-end benchmark. It runs a
// named workload — a campaign plan — through the public entry points
// (exp.PaperSpecs → campaign.Registry.Execute, with the cache, journal
// and wire seams where the workload uses them), checks every artifact,
// and prints the end-to-end metrics; with --trace 1 it instead runs one
// traced campaign and prints per-layer metrics. See NOTES.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it records provenance and the run's details.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/exp"
)

// metric describes one reported number.
type metric struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the campaign engine sees, one value
// per run.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's numbers.
var perLayer = func() []metric {
	ms := []metric{
		{"exp.spec_build_s", "s", "lower"},
		{"exp.world_build_s", "s", "lower"},
		{"exp.attach_s", "s", "lower"},
		{"exp.collect_s", "s", "lower"},
		{"exp.job_s", "s", "lower"},
		{"exp.world_build_frac", "ratio", "lower"},
		{"sim.run_s", "s", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.event_allocs", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"mac.input_pkts", "count", "higher"},
		{"mac.ns_per_pkt", "ns", "lower"},
		{"mac.input_drops", "count", "lower"},
		{"mac.retry_drops", "count", "lower"},
		{"mac.aggr_mean", "count", "higher"},
		{"pkt.pool_gets", "count", "lower"},
		{"pkt.pool_reuse", "ratio", "higher"},
		{"gc.cycles", "count", "lower"},
		{"gc.pause_s", "s", "lower"},
		{"gc.alloc_mb", "MB", "lower"},
		{"gc.cpu_frac", "ratio", "lower"},
		{"campaign.idle_frac", "ratio", "lower"},
		{"campaign.aggregate_s", "s", "lower"},
		{"campaign.artifact_s", "s", "lower"},
		{"campaign.encode_s", "s", "lower"},
		{"campaign.encode_bytes", "bytes", "lower"},
		{"campaign.decode_s", "s", "lower"},
		{"cache.get_s", "s", "lower"},
		{"cache.put_s", "s", "lower"},
		{"cache.hits", "count", "higher"},
		{"cache.misses", "count", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"cache.drops", "count", "lower"},
		{"journal.append_s", "s", "lower"},
		{"journal.bytes", "bytes", "lower"},
		{"wire.dispatch_s", "s", "lower"},
		{"wire.shard_rtt_ms", "ms", "lower"},
		{"wire.server_ms", "ms", "lower"},
		{"wire.requests", "count", "lower"},
		{"wire.useful_ratio", "ratio", "higher"},
	}
	for _, m := range append(modules, "other") {
		ms = append(ms, metric{"cpu." + m, "ratio", "lower"})
	}
	return append(ms, metric{"trace.overhead_s", "s", "lower"})
}()

// pinnedJSON holds the artifact SHA-256 of each workload at the default
// seed and at one held-out seed, and of the canary campaign:
// workload → seed → digest.
//
//go:embed digests.json
var pinnedJSON []byte

// minBeyond is the tail rule's sample margin: report the highest
// percentile with at least this many job samples beyond it.
const minBeyond = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (paper, dense-build, sweep-remote)")
	seed := fs.Uint64("seed", campaign.DefaultSeed, "campaign base seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run (sets the number of campaigns)")
	trace := fs.Int("trace", 0, "1 runs the traced campaign and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper, dense-build, sweep-remote), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var pinned map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fmt.Fprintln(stderr, "perfbench: digests.json:", err)
		return 1
	}
	r := &runner{
		b: newBench(w, *seed, tmp), iters: w.iterations(*seconds),
		pinned: pinned[w.name][strconv.FormatUint(*seed, 10)],
		canary: pinned["canary"][strconv.FormatUint(campaign.DefaultSeed, 10)],
		log:    stderr,
	}
	var rep *report
	if *trace == 1 {
		rep = r.traced()
	} else {
		rep = r.untraced()
	}
	rep.Workload = w.name
	rep.Provenance = provenance(root, *seed)
	for _, c := range rep.Checks {
		if !c.OK {
			rep.result.Correct = false
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(rep.result); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: what ran, on what, and how each
// check went.
type report struct {
	Workload   string                 `json:"workload"`
	Provenance Provenance             `json:"provenance"`
	Iterations int                    `json:"iterations"`
	Digest     string                 `json:"artifact_sha256"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	Summary    map[string]float64     `json:"summary"`
	Walls      []float64              `json:"iteration_wall_s,omitempty"`
	CPUs       []float64              `json:"iteration_cpu_s,omitempty"`
	Setups     []float64              `json:"iteration_setup_s,omitempty"`
	RSS        []float64              `json:"iteration_peak_rss_mb,omitempty"`
	Checks     []check                `json:"checks"`

	result result
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type runner struct {
	b      *bench
	iters  int
	pinned string // expected artifact digest for this seed, if pinned
	canary string // pinned digest of canaryPlan's artifact
	log    io.Writer
}

// runIterations makes the run's measured campaigns and checks their
// artifacts; an iteration whose artifact is wrong counts all its jobs as
// failed.
func (r *runner) runIterations() ([]iteration, []check) {
	its := make([]iteration, r.iters)
	for i := range its {
		its[i] = r.b.once()
		fmt.Fprintf(r.log, "perfbench: %s iteration %d/%d: setup %.3fs wall %.3fs cpu %.3fs err=%v\n",
			r.b.w.name, i+1, r.iters, its[i].setupS, its[i].wallS, its[i].cpuS, its[i].err)
	}
	return its, r.verify(its)
}

// verify checks the run's artifacts against the pinned digests, the
// canary campaign and, for a remote workload, a plain local run.
func (r *runner) verify(its []iteration) []check {
	var checks []check
	add := func(name string, ok bool, detail string) {
		checks = append(checks, check{name, ok, detail})
	}
	var errs []string
	for i, it := range its {
		if it.err != nil {
			errs = append(errs, fmt.Sprintf("iteration %d: %v", i+1, it.err))
		}
	}
	add("execute", len(errs) == 0, fmt.Sprint(errs))

	canary, err := plainDigest(exp.PaperSpecs(), canaryPlan(), r.b.workers)
	canaryOK := err == nil && canary == r.canary
	add("canary", canaryOK, fmt.Sprintf("known-answer campaign %s, pinned %s (err=%v)", canary, r.canary, err))

	expected, source := r.pinned, "pinned digest"
	if r.b.w.remote {
		ref, err := r.b.reference()
		if err != nil {
			add("reference", false, err.Error())
		} else {
			add("reference", expected == "" || ref == expected, "local no-cache run "+ref)
			if expected == "" {
				expected, source = ref, "local no-cache reference"
			}
		}
	}
	if expected == "" {
		expected, source = its[0].digest, "first iteration (no pinned digest for this seed)"
	}
	bad := 0
	for i := range its {
		if its[i].err == nil && (its[i].digest != expected || !canaryOK) {
			its[i].failed = its[i].jobs
			bad++
		}
	}
	add("digest", bad == 0, fmt.Sprintf("%d/%d artifacts differ from the %s %s", bad, len(its), source, expected))

	shapeOK, detail := true, ""
	for _, it := range its {
		res := it.result
		if it.err != nil || res == nil {
			continue
		}
		if res.Runs != it.jobs || len(res.Cells)*res.Reps != it.jobs {
			shapeOK, detail = false, fmt.Sprintf("%d runs in %d cells × %d reps, plan has %d jobs", res.Runs, len(res.Cells), res.Reps, it.jobs)
		}
		if r.b.w.remote && (res.Stats.FromCache != it.jobs/2 || res.Stats.Simulated != it.jobs-it.jobs/2) {
			shapeOK, detail = false, fmt.Sprintf("%d from cache, %d simulated of %d jobs", res.Stats.FromCache, res.Stats.Simulated, it.jobs)
		}
	}
	add("shape", shapeOK, detail)
	return checks
}

func totals(its []iteration) (attempted, failed int) {
	for _, it := range its {
		attempted += it.jobs
		failed += it.failed
	}
	return attempted, failed
}

// untraced makes the run's campaigns and reports the end-to-end
// metrics, each the median over the campaigns.
func (r *runner) untraced() *report {
	its, checks := r.runIterations()
	var walls, cpus, setups, rss, p50s, tails []float64
	jobs, tailPct := 0, 0.0
	for _, it := range its {
		walls, cpus, setups = append(walls, it.wallS), append(cpus, it.cpuS), append(setups, it.setupS)
		rss = append(rss, it.peakRSSMB)
		if len(it.jobMs) == 0 {
			continue
		}
		jobs = len(it.jobMs)
		p50s = append(p50s, median(it.jobMs))
		if v, pct, ok := tailPercentile(it.jobMs, minBeyond); ok {
			tails, tailPct = append(tails, v), pct
		}
	}
	if len(tails) == 0 {
		checks = append(checks, check{"tail", false, fmt.Sprintf("%d job samples per campaign, need %d", jobs, minBeyond+1)})
	}
	attempted, failed := totals(its)
	vals := map[string]float64{
		"wall_s": median(walls), "cpu_s": median(cpus), "setup_s": median(setups),
		"job_p50_ms": median(p50s), "job_tail_ms": median(tails), "peak_rss_mb": median(rss),
	}
	rep := &report{Iterations: len(its), Digest: its[0].digest, Checks: checks}
	rep.Walls, rep.CPUs, rep.Setups, rep.RSS = walls, cpus, setups, rss
	rep.Summary = map[string]float64{"job_tail_pct": tailPct, "jobs_per_campaign": float64(jobs)}
	rep.result = result{Correct: true, Attempted: attempted, Failed: failed, Metrics: values(endToEnd, vals)}
	// All seven end-to-end numbers, fail_frac included: it is 0 on a
	// correct run, so the result line carries it as failed/attempted.
	rep.EndToEnd = values(endToEnd, vals)
	rep.EndToEnd["fail_frac"] = metricValue{float64(failed) / float64(attempted), "ratio"}
	return rep
}

// traced makes the run's untraced campaigns (the overhead baseline and
// the artifact every traced output must equal), then one traced campaign
// with a CPU profile, and reports per-layer metrics from its spans,
// counters and profile.
func (r *runner) traced() *report {
	its, checks := r.runIterations()
	var walls []float64
	for _, it := range its {
		walls = append(walls, it.wallS)
	}
	attempted, failed := totals(its)
	rep := &report{Iterations: len(its), Digest: its[0].digest}

	b := r.b
	var prof bytes.Buffer
	it, vals := b.tracedOnce(&prof)
	shares, perr := foldProfile(prof.Bytes())
	for m, v := range shares {
		vals["cpu."+m] = v
	}
	vals["trace.overhead_s"] = it.wallS - median(walls)
	fmt.Fprintf(r.log, "perfbench: %s traced iteration: wall %.3fs err=%v\n", b.w.name, it.wallS, it.err)

	checks = append(checks, check{"profile", perr == nil, fmt.Sprint(perr)})
	checks = append(checks, check{"traced-execute", it.err == nil, fmt.Sprint(it.err)})
	expected := its[0].digest
	checks = append(checks, check{"traced-artifact", it.err == nil && it.digest == expected,
		fmt.Sprintf("traced %s, untraced %s", it.digest, expected)})
	n, mismatched, err := b.checkTracedBlobs()
	checks = append(checks, check{"traced-blobs", err == nil && n > 0 && mismatched == 0,
		fmt.Sprintf("%d of %d traced jobs encode differently from Registry.RunJob (err=%v)", mismatched, n, err)})
	if it.err != nil || it.digest != expected || mismatched > 0 {
		it.failed = it.jobs
	}

	rep.Checks = checks
	rep.Summary = map[string]float64{"untraced_wall_s": median(walls), "traced_wall_s": it.wallS}
	rep.result = result{
		Correct: true, Attempted: attempted + it.jobs, Failed: failed + it.failed,
		Metrics: values(perLayer, vals),
	}
	return rep
}

// values renders every listed metric, 0 where vals has none; NaN and
// infinities (empty ratios) also read as 0.
func values(list []metric, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(list))
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}
