package main

import (
	"strconv"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sim"
)

// workload is one named campaign the benchmark times. The seed is the
// plan's base seed; the program sees only the plan it generates.
type workload struct {
	name string

	// nominalS is one iteration's wall time — set-up plus campaign — on
	// the reference machine (see NOTES.md). A run makes
	// round(seconds/nominalS) iterations, at least one, so the number of
	// campaigns, and with it every median's sample count, is fixed for a
	// given --seconds.
	nominalS float64

	plan func(seed uint64) campaign.Plan

	// remote pre-fills an on-disk cache with repetition 0 during set-up
	// and dispatches the remaining jobs to a loopback shard worker, with
	// results journaled.
	remote bool

	// specs lists the scenarios to register (default exp.PaperSpecs).
	specsFn func() []*exp.Spec
}

func (w *workload) specs() []*exp.Spec {
	if w.specsFn != nil {
		return w.specsFn()
	}
	return exp.PaperSpecs()
}

// iterations is the number of measured campaigns a run of the given
// length makes.
func (w *workload) iterations(seconds float64) int {
	n := int(seconds/w.nominalS + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

var workloads = []*workload{
	{
		// The default campaign: every registered scenario's default grid,
		// 86 cells × 3 reps = 258 jobs at 10 s + 2 s warmup, local pool,
		// no cache.
		name:     "paper",
		nominalS: 9,
		plan: func(seed uint64) campaign.Plan {
			return campaign.Plan{BaseSeed: seed}
		},
	},
	{
		// Dense worlds with a short measured interval: world construction
		// (AddStation, scheduler registration) dominates job time.
		name:     "dense-build",
		nominalS: 4.5,
		plan: func(seed uint64) campaign.Plan {
			return campaign.Plan{
				BaseSeed:  seed,
				Scenarios: []string{"dense"},
				Overrides: map[string][]string{
					"stations": {"2000", "4000", "8000"},
					"bss":      {"1", "4", "16"},
					"scheme":   {"Airtime", "FQ-CoDel"},
				},
				Reps:     2,
				Duration: 500 * sim.Millisecond,
				Warmup:   500 * sim.Millisecond,
			}
		},
	},
	{
		// Many short cells: half served from a pre-filled cache, half
		// simulated on a loopback shard worker, cached and journaled.
		name:     "sweep-remote",
		nominalS: 1.4,
		remote:   true,
		plan: func(seed uint64) campaign.Plan {
			return campaign.Plan{
				BaseSeed:  seed,
				Scenarios: []string{"udp", "latency", "throughput"},
				Overrides: map[string][]string{
					"scheme":    {"FIFO", "FQ-CoDel", "FQ-MAC", "Airtime", "DTT"},
					"rate-mbps": rates(5, 150, 5),
				},
				Reps:     2,
				Duration: 300 * sim.Millisecond,
				Warmup:   200 * sim.Millisecond,
			}
		},
	},
}

// rates lists lo, lo+step, ..., hi as axis values.
func rates(lo, hi, step int) []string {
	var out []string
	for v := lo; v <= hi; v += step {
		out = append(out, strconv.Itoa(v))
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
