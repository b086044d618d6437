package exp

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/stats"
)

// ScaleConfig configures the 30-station experiment of §4.1.5 (Figures 9
// and 10): 28 fast stations and one 1 Mbps legacy station receive bulk TCP
// downloads; a 29th fast station receives only pings.
type ScaleConfig struct {
	Run      RunConfig
	Scheme   mac.Scheme
	Stations int // total clients including slow and ping-only (default 30)
}

// ScaleResult reports airtime shares, latency and totals for the scaled
// setup.
type ScaleResult struct {
	Scheme     mac.Scheme
	SlowShare  float64      // slow station's airtime share
	FastShares stats.Sample // per-fast-station airtime shares
	FastRTT    stats.Sample // latency to a bulk fast station, ms
	SlowRTT    stats.Sample // latency to the slow station, ms
	SparseRTT  stats.Sample // latency to the ping-only station, ms
	TotalMbps  float64
}

// scaleSpecs builds the scaled population: station 0 is the 1 Mbps
// legacy client, the last is ping-only, the rest are fast bulk stations.
// Counts below 4 fall back to the paper's 30 (RunScale's zero default;
// SpecScale rejects them).
func scaleSpecs(count int) []StationSpec {
	if count < 4 {
		count = 30
	}
	fastRate := phy.MCS(7, true)
	specs := make([]StationSpec, 0, count)
	specs = append(specs, StationSpec{Name: "slow", Rate: phy.Legacy(1)})
	for i := 1; i < count-1; i++ {
		specs = append(specs, StationSpec{Name: fmt.Sprintf("fast%02d", i), Rate: fastRate})
	}
	specs = append(specs, StationSpec{Name: "pingonly", Rate: fastRate})
	return specs
}

// scaleInstance composes the scaled setup: bulk TCP to everyone but the
// ping-only station, pings to the slow, first-fast and ping-only
// stations, airtime-share and latency probes.
func scaleInstance(cfg ScaleConfig, specs []StationSpec) *Instance {
	return &Instance{
		Net: NetConfig{Scheme: cfg.Scheme, Stations: specs},
		Workloads: []*Workload{
			TCPDown().On(AllButLast()),
			Pings(0).On(StationAt(0, 1, -1)),
		},
		Probes: []Probe{
			ShareAt(0, "slow-share"),
			SumRxMbps("total-mbps"),
			SharesDist(1, -2, "fast-share"),
			RTTAt(1, "fast-rtt-ms"),
			RTTAt(0, "slow-rtt-ms"),
			RTTAt(-1, "sparse-rtt-ms"),
		},
	}
}

// SpecScale is the declarative form of the experiment.
func SpecScale() *Spec {
	return &Spec{
		Name: "scale",
		Desc: "many-station airtime, throughput and latency (Figures 9-10)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"FQ-CoDel", "FQ-MAC", "Airtime"}},
			{Name: "stations", Values: []string{"30"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			count, err := p.Int("stations")
			if err != nil {
				return nil, err
			}
			if count < 4 {
				// Fewer leaves no fast bulk station beside the slow,
				// first-fast and ping-only roles.
				return nil, fmt.Errorf("stations = %d, want at least 4", count)
			}
			cfg := ScaleConfig{Scheme: scheme, Stations: count}
			return scaleInstance(cfg, scaleSpecs(count)), nil
		},
	}
}

// RunScale executes the experiment. The third-party testbed runs on a
// 2.4 GHz HT20 channel; fast stations here use MCS7 (72.2 Mbps) and the
// slow station the 1 Mbps DSSS rate with HT disabled.
func RunScale(cfg ScaleConfig) *ScaleResult {
	cfg.Run.fill()
	specs := scaleSpecs(cfg.Stations)

	res := &ScaleResult{Scheme: cfg.Scheme}
	for _, m := range eachRep(cfg.Run, func(run RunConfig) *campaign.Metrics {
		m, _ := scaleInstance(cfg, specs).Execute(run)
		return m
	}) {
		slow, _ := m.Scalar("slow-share")
		total, _ := m.Scalar("total-mbps")
		res.SlowShare += slow
		res.TotalMbps += total
		res.FastShares.Merge(m.Sample("fast-share"))
		res.SlowRTT.Merge(m.Sample("slow-rtt-ms"))
		res.FastRTT.Merge(m.Sample("fast-rtt-ms"))
		res.SparseRTT.Merge(m.Sample("sparse-rtt-ms"))
	}
	f := float64(cfg.Run.Reps)
	res.SlowShare /= f
	res.TotalMbps /= f
	return res
}

// String renders the scaled-setup metrics.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s slow airtime share: %s, fast share: med %s (min %s max %s)\n",
		r.Scheme, pct(r.SlowShare), pct(r.FastShares.Median()),
		pct(r.FastShares.Min()), pct(r.FastShares.Max()))
	fmt.Fprintf(&b, "%-8s total throughput: %.1f Mbps\n", r.Scheme, r.TotalMbps)
	fmt.Fprintf(&b, "%-8s RTT fast:   %s\n", r.Scheme, r.FastRTT.Summary())
	fmt.Fprintf(&b, "%-8s RTT slow:   %s\n", r.Scheme, r.SlowRTT.Summary())
	fmt.Fprintf(&b, "%-8s RTT sparse: %s\n", r.Scheme, r.SparseRTT.Summary())
	return b.String()
}
