// campaign drives the parallel experiment-campaign engine from the
// command line: list the registered scenarios, run a selection of them
// across every core, sweep chosen parameter axes, or serve as a shard
// worker for other campaign processes.
//
// Usage:
//
//	campaign list
//	campaign describe udp
//	campaign run  [-s udp -s fairness] [-reps 10] [-dur 30] [-workers 8]
//	              [-out results.json] [-csv results.csv]
//	campaign sweep -s udp -axis scheme=FIFO,Airtime -axis rate-mbps=10,50,100
//	campaign run  -journal c.journal ...      # checkpoint as cells finish
//	campaign run  -journal c.journal -resume  # replay it, run the rest
//	campaign serve -listen :8080              # HTTP shard worker
//	campaign run  -remote http://hostA:8080 -remote http://hostB:8080 ...
//	campaign run  -chaos "seed=7,cache,journal" ...  # fault-injected run
//	campaign serve -chaos "seed=7,serve" ...         # fault-injected worker
//
// describe prints a scenario's declarative composition — its stations,
// workloads, probes, parameter axes and emitted metric names — from
// Spec metadata. run executes the scenarios' default grids; sweep is
// run plus axis overrides. Aggregated output (JSON/CSV artifacts and
// the printed table) is byte-identical for any -workers value: per-run
// seeds derive from job coordinates and aggregation folds in matrix
// order. The same contract extends across the result cache, the resume
// journal and the shard wire protocol: cold, warm-cache, resumed and
// remote executions of one campaign produce byte-identical artifacts.
//
// Results are cached by default under os.UserCacheDir()/hj17, keyed by
// (scenario, canonicalized params, rep, seed, code fingerprint); rerun
// a campaign and only never-seen cells simulate. -no-cache opts out,
// -cache-dir relocates the store, and -fingerprint overrides the code
// fingerprint for development builds that go vcs-stamping cannot tell
// apart.
//
// SIGINT interrupts a run gracefully: in-flight cells drain into the
// -journal checkpoint stream and the process exits with status 130 and
// a resume hint — rerun with -resume to pick up where it stopped.
//
// -chaos enables deterministic fault injection (package chaos) for
// hardening runs: a seeded plan tears cache entries, drops journal
// appends, resets or stalls shard requests, and crashes workers, while
// the resilience layers above must still converge on artifacts
// byte-identical to a fault-free run. CI's chaos gate enforces exactly
// that.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/cache"
	"repro/internal/campaign/journal"
	"repro/internal/campaign/wire"
	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/mac"
	"repro/internal/sim"
)

type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(s string) error {
	*l = append(*l, s)
	return nil
}

type axisOverrides map[string][]string

func (a axisOverrides) String() string { return fmt.Sprint(map[string][]string(a)) }
func (a axisOverrides) Set(s string) error {
	name, values, ok := strings.Cut(s, "=")
	if !ok || name == "" || values == "" {
		return fmt.Errorf("want -axis name=v1,v2,..., got %q", s)
	}
	a[name] = strings.Split(values, ",")
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	reg := exp.NewRegistry()
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "list":
		list(reg)
	case "describe":
		describe(reg, args)
	case "schemes":
		schemes(args)
	case "run", "sweep":
		execute(reg, cmd, args)
	case "serve":
		serve(reg, args)
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `campaign — parallel experiment campaigns over the simulated testbed

commands:
  list                 show registered scenarios, their parameter axes and
                       the registered transmit-path schemes
  describe <scenario>  show a scenario's stations, workloads, probes and
                       emitted metric names from its Spec metadata
  schemes [-csv]       print registered scheme names (for scripting sweeps)
  run   [flags]        run scenarios over their default parameter grids
  sweep [flags]        run with -axis overrides sweeping chosen parameters
  serve [flags]        run as an HTTP shard worker (-listen addr) that
                       executes cell batches for -remote campaign clients

flags of run and sweep:
`)
	fs := executeFlags(&options{})
	fs.SetOutput(os.Stderr)
	fs.PrintDefaults()
}

func list(reg *campaign.Registry) {
	fmt.Println("scenarios:")
	for _, sc := range reg.Scenarios() {
		fmt.Printf("%-12s %s%s\n", sc.Name, sc.Desc, stationTotal(sc))
		for _, a := range sc.Axes {
			fmt.Printf("  %-18s %s\n", a.Name, strings.Join(a.Values, ", "))
		}
	}
	fmt.Println("\nregistered schemes (usable in any scheme axis):")
	for _, s := range mac.AllSchemes() {
		fmt.Printf("%-18s %s\n", s, s.Desc())
	}
}

// stationTotal renders a scenario's default-point station count — with
// its BSS count for multi-BSS worlds — as a list suffix.
func stationTotal(sc *campaign.Scenario) string {
	if sc.Meta == nil {
		return ""
	}
	if t := sc.Meta.Topology; t != nil {
		return fmt.Sprintf("  [%d stations / %d BSS]", t.TotalStations, t.BSSCount)
	}
	return fmt.Sprintf("  [%d stations]", len(sc.Meta.Stations))
}

// describe prints one scenario's declarative composition from its Spec
// metadata: stations, workloads (with phase and targets), probes with
// the metric names they emit, and the parameter grid.
func describe(reg *campaign.Registry, args []string) {
	if len(args) != 1 {
		fmt.Fprintf(os.Stderr, "usage: campaign describe <scenario>   (scenarios: %s)\n",
			strings.Join(reg.Names(), ", "))
		os.Exit(2)
	}
	sc := reg.Get(args[0])
	if sc == nil {
		fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q (have %s)\n",
			args[0], strings.Join(reg.Names(), ", "))
		os.Exit(2)
	}
	fmt.Printf("%s — %s\n", sc.Name, sc.Desc)
	fmt.Println("\nparameters (default grid; override with sweep -axis):")
	for _, a := range sc.Axes {
		fmt.Printf("  %-14s %s\n", a.Name, strings.Join(a.Values, ", "))
	}
	if sc.Meta == nil {
		fmt.Println("\n(no composition metadata — hand-written scenario)")
		return
	}
	if t := sc.Meta.Topology; t != nil {
		per := make([]string, len(t.StationsPerBSS))
		for i, n := range t.StationsPerBSS {
			per[i] = fmt.Sprint(n)
		}
		fmt.Printf("\ntopology (default point): %d co-channel BSS, %d stations total (per BSS: %s)\n",
			t.BSSCount, t.TotalStations, strings.Join(per, ", "))
	}
	fmt.Printf("\nstations (default point): %s\n", strings.Join(sc.Meta.Stations, ", "))
	fmt.Println("\nworkloads:")
	for _, w := range sc.Meta.Workloads {
		fmt.Printf("  %-10s %-38s at %-7s on %s\n", w.Kind, w.Label, w.Phase, w.Targets)
	}
	fmt.Println("\nprobes and emitted metrics:")
	for _, p := range sc.Meta.Probes {
		fmt.Printf("  %-14s %s\n", p.Name, strings.Join(p.Metrics, ", "))
	}
}

// schemes prints the registered scheme names, one per line (or
// comma-separated with -csv), for scripting sweeps over every scheme.
func schemes(args []string) {
	fs := flag.NewFlagSet("schemes", flag.ExitOnError)
	csv := fs.Bool("csv", false, "print one comma-separated line")
	fs.Parse(args)
	names := mac.SchemeNames()
	if *csv {
		fmt.Println(strings.Join(names, ","))
		return
	}
	for _, n := range names {
		fmt.Println(n)
	}
}

type options struct {
	scenarios   stringList
	axes        axisOverrides
	reps        int
	dur         float64
	warmup      float64
	seed        uint64
	workers     int
	out         string
	csv         string
	quiet       bool
	cacheDir    string
	noCache     bool
	fingerprint string
	journalPath string
	resume      bool
	remotes     stringList
	shardSize   int
	statsOut    string
	reqTimeout  time.Duration
	stallTO     time.Duration
	chaosSpec   string
}

func executeFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	o.axes = make(axisOverrides)
	fs.Var(&o.scenarios, "s", "scenario to run (repeatable; default all)")
	fs.Var(o.axes, "axis", "axis override name=v1,v2,... (repeatable, sweep)")
	fs.IntVar(&o.reps, "reps", 3, "repetitions per grid point")
	fs.Float64Var(&o.dur, "dur", 10, "measured seconds per repetition")
	fs.Float64Var(&o.warmup, "warmup", 2, "settling seconds excluded from measurement")
	fs.Uint64Var(&o.seed, "seed", 42, "campaign base seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&o.out, "out", "", "write JSON artifact to this path")
	fs.StringVar(&o.csv, "csv", "", "write CSV artifact to this path")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress output")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "result cache directory (default <user cache dir>/hj17)")
	fs.BoolVar(&o.noCache, "no-cache", false, "disable the content-addressed result cache")
	fs.StringVar(&o.fingerprint, "fingerprint", "", "override the code fingerprint cache keys use")
	fs.StringVar(&o.journalPath, "journal", "", "checkpoint completed cells to this file")
	fs.BoolVar(&o.resume, "resume", false, "replay the -journal file and run only the remainder")
	fs.Var(&o.remotes, "remote", "shard-worker base URL, e.g. http://host:8080 (repeatable)")
	fs.IntVar(&o.shardSize, "shard-size", 0, "cells per remote shard request (0 = default)")
	fs.StringVar(&o.statsOut, "stats-out", "", "write execution stats JSON (cache hits, wall time) to this path")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 0, "cap on one remote shard attempt end to end (0 = 15m default)")
	fs.DurationVar(&o.stallTO, "stall-timeout", 0, "cap on remote-worker silence between result lines (0 = 2m default)")
	fs.StringVar(&o.chaosSpec, "chaos", "", `fault-injection spec, e.g. "seed=7,rate=300,limit=8,cache,journal,http"`)
	return fs
}

func execute(reg *campaign.Registry, cmd string, args []string) {
	var o options
	fs := executeFlags(&o)
	fs.Parse(args)
	if cmd == "sweep" && len(o.axes) == 0 {
		fmt.Fprintln(os.Stderr, "campaign sweep: need at least one -axis name=v1,v2,...")
		os.Exit(2)
	}
	checkScenarios(reg, o.scenarios)

	var chaosPlan *chaos.Plan
	if o.chaosSpec != "" {
		p, err := chaos.Parse(o.chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			os.Exit(2)
		}
		chaosPlan = p
	}

	// SIGINT interrupts the campaign gracefully: in-flight cells drain
	// into the journal and the process exits resumable.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	plan := newPlan(ctx, &o, chaosPlan)

	if !o.noCache {
		dir := o.cacheDir
		if dir == "" {
			d, err := cache.DefaultDir()
			if err != nil {
				fmt.Fprintf(os.Stderr, "campaign: no default cache dir (%v); pass -cache-dir or -no-cache\n", err)
				os.Exit(1)
			}
			dir = d
		}
		store, err := cache.Open(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: opening cache %s: %v\n", dir, err)
			os.Exit(1)
		}
		plan.Cache = chaosPlan.WrapStore(store)
	}

	if o.resume {
		if o.journalPath == "" {
			fmt.Fprintln(os.Stderr, "campaign: -resume needs -journal <path>")
			os.Exit(2)
		}
		replayed, n, err := journal.Replay(o.journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: replaying %s: %v\n", o.journalPath, err)
			os.Exit(1)
		}
		plan.Resume = replayed
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "resuming: %d completed cells replayed from %s\n", n, o.journalPath)
		}
	}
	var jw *journal.Writer
	if o.journalPath != "" {
		w, err := journal.Create(o.journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: opening journal %s: %v\n", o.journalPath, err)
			os.Exit(1)
		}
		jw = w
		defer w.Close()
		plan.Journal = chaosPlan.WrapJournal(w, w.Path())
	}
	start := time.Now()
	if !o.quiet {
		plan.OnProgress = progressLine(start)
	}

	res, err := reg.Execute(plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "\n%v\n", err)
		// os.Exit skips defers — flush the checkpoint stream explicitly
		// so every drained cell survives to the resume.
		if jw != nil {
			jw.Close()
		}
		if errors.Is(err, campaign.ErrInterrupted) {
			if o.journalPath != "" {
				fmt.Fprintf(os.Stderr, "campaign: resume with: campaign %s -journal %s -resume ...\n",
					cmd, o.journalPath)
			}
			os.Exit(130) // conventional SIGINT exit status
		}
		os.Exit(1)
	}
	wall := time.Since(start)
	if chaosPlan != nil && !o.quiet {
		fmt.Fprintf(os.Stderr, "chaos: faults injected per site: %s\n", chaosPlan)
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "%d runs (%d cells × %d reps; %d cached, %d simulated) in %.1fs\n",
			res.Runs, len(res.Cells), res.Reps,
			res.Stats.FromCache, res.Stats.Simulated, wall.Seconds())
	}

	fmt.Print(res.Render())

	if o.out != "" {
		writeArtifact(o.out, res.WriteJSON)
	}
	if o.csv != "" {
		writeArtifact(o.csv, res.WriteCSV)
	}
	if o.statsOut != "" {
		writeArtifact(o.statsOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(map[string]any{
				"total":      res.Stats.Total,
				"from_cache": res.Stats.FromCache,
				"simulated":  res.Stats.Simulated,
				"wall_sec":   wall.Seconds(),
			})
		})
	}
}

// newPlan builds the campaign plan the run/sweep flags describe, with
// the shard client when -remote names workers; execute adds the cache,
// journal and resume map. The code fingerprint is resolved once, before
// either is built, so the plan's cache keys and the fingerprint the
// client presents to workers are the same value.
func newPlan(ctx context.Context, o *options, chaosPlan *chaos.Plan) campaign.Plan {
	fp := resolveFingerprint(o.fingerprint)
	plan := campaign.Plan{
		Scenarios:   o.scenarios,
		Overrides:   o.axes,
		Reps:        o.reps,
		Duration:    sim.Time(o.dur * float64(sim.Second)),
		Warmup:      sim.Time(o.warmup * float64(sim.Second)),
		BaseSeed:    o.seed,
		Workers:     o.workers,
		Fingerprint: fp,
		Context:     ctx,
	}
	if len(o.remotes) > 0 {
		client := &wire.Client{
			Workers:      o.remotes,
			Fingerprint:  fp,
			ShardSize:    o.shardSize,
			Timeout:      o.reqTimeout,
			StallTimeout: o.stallTO,
		}
		if chaosPlan != nil {
			client.HTTP = &http.Client{Transport: chaosPlan.Transport(nil)}
		}
		plan.Dispatch = client
	}
	return plan
}

// resolveFingerprint returns the -fingerprint flag's value, or this
// build's code fingerprint when the flag is empty — the value serve
// offers too, so client and worker builds of one commit agree.
func resolveFingerprint(flag string) string {
	if flag != "" {
		return flag
	}
	return campaign.BuildFingerprint()
}

// checkScenarios rejects unknown -s names up front with a did-you-mean
// hint and a non-zero exit, instead of failing mid-campaign.
func checkScenarios(reg *campaign.Registry, names []string) {
	known := reg.Names()
	bad := false
	for _, name := range names {
		if reg.Get(name) != nil {
			continue
		}
		bad = true
		if sug := campaign.Suggest(name, known); len(sug) > 0 {
			fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q — did you mean %s?\n",
				name, strings.Join(sug, " or "))
		} else {
			fmt.Fprintf(os.Stderr, "campaign: unknown scenario %q (have %s)\n",
				name, strings.Join(known, ", "))
		}
	}
	if bad {
		os.Exit(2)
	}
}

// progressLine renders `done/total (cached, simulated) eta`. The ETA
// divides the remaining cells by the simulated-cell rate only: cache
// hits land in microseconds and would otherwise poison the estimate.
func progressLine(start time.Time) func(campaign.ProgressInfo) {
	return func(p campaign.ProgressInfo) {
		eta := ""
		if rem := p.Total - p.Done; rem > 0 && p.Simulated > 0 {
			perCell := time.Since(start) / time.Duration(p.Simulated)
			eta = fmt.Sprintf("  eta %s", (perCell * time.Duration(rem)).Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "\r%d/%d runs (%d cached, %d simulated)%s ",
			p.Done, p.Total, p.FromCache, p.Simulated, eta)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// serve runs the process as an HTTP shard worker for remote campaign
// clients: POST /shard executes a cell batch, GET /healthz reports
// liveness and the worker's code fingerprint.
func serve(reg *campaign.Registry, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "address to listen on")
	fingerprint := fs.String("fingerprint", "", "override the code fingerprint offered to clients")
	workers := fs.Int("workers", 0, "worker goroutines per shard (0 = GOMAXPROCS)")
	chaosSpec := fs.String("chaos", "", `worker-side fault-injection spec, e.g. "seed=7,serve"`)
	fs.Parse(args)

	var chaosPlan *chaos.Plan
	if *chaosSpec != "" {
		p, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign serve: %v\n", err)
			os.Exit(2)
		}
		chaosPlan = p
	}

	fp := resolveFingerprint(*fingerprint)
	srv := &wire.Server{Registry: reg, Fingerprint: fp, Workers: *workers}
	handler := chaosPlan.Middleware(srv.Handler())
	fmt.Fprintf(os.Stderr, "campaign serve: listening on %s (fingerprint %s)\n", *listen, fp)
	if err := http.ListenAndServe(*listen, handler); err != nil {
		fmt.Fprintf(os.Stderr, "campaign serve: %v\n", err)
		os.Exit(1)
	}
}

func writeArtifact(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
