package exp

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// VoIPConfig configures one cell of Table 2: a VoIP stream plus bulk
// download to the slow station, bulk downloads to three fast stations,
// with the voice traffic marked either best-effort or voice, and a
// baseline one-way wired delay of 5 or 50 ms.
type VoIPConfig struct {
	Run        RunConfig
	Scheme     mac.Scheme
	UseVO      bool     // mark voice packets VO instead of BE
	WiredDelay sim.Time // baseline one-way delay (5 ms / 50 ms)
}

// VoIPResult is one Table 2 cell: the voice MOS estimate and the total
// bulk throughput.
type VoIPResult struct {
	Scheme    mac.Scheme
	UseVO     bool
	Delay     sim.Time
	MOS       float64
	TotalMbps float64
}

// voipInstance composes one cell: bulk TCP to all four stations from
// t=0, the voice call to the slow station once queues have filled, the
// call score plus total bulk throughput.
func voipInstance(cfg VoIPConfig) *Instance {
	ac := pkt.ACBE
	if cfg.UseVO {
		ac = pkt.ACVO
	}
	return &Instance{
		Net: NetConfig{
			Scheme:     cfg.Scheme,
			Stations:   FourStations(), // fast1 fast2 slow fast3
			WiredDelay: cfg.WiredDelay,
		},
		Workloads: []*Workload{
			TCPDown(),
			VoIPCall(ac).On(StationsNamed("slow")),
		},
		Probes: []Probe{MOS("mos"), SumRxMbps("thrp-mbps")},
	}
}

// SpecVoIP is the declarative form of the experiment.
func SpecVoIP() *Spec {
	return &Spec{
		Name: "voip",
		Desc: "VoIP MOS and bulk throughput (Table 2)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "qos", Values: []string{"BE", "VO"}},
			{Name: "delay-ms", Values: []string{"5", "50"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			delay, err := p.Int("delay-ms")
			if err != nil {
				return nil, err
			}
			// BuildWorld reads a zero WiredDelay as its 1 ms default, so
			// 0 would record one delay and simulate another.
			if delay < 1 {
				return nil, fmt.Errorf("delay-ms = %d, want >= 1", delay)
			}
			return voipInstance(VoIPConfig{
				Scheme: scheme, UseVO: p.Str("qos") == "VO",
				WiredDelay: sim.Time(delay) * sim.Millisecond,
			}), nil
		},
	}
}

// RunVoIP executes the experiment, repetitions in parallel.
func RunVoIP(cfg VoIPConfig) *VoIPResult {
	cfg.Run.fill()
	if cfg.WiredDelay <= 0 {
		cfg.WiredDelay = 5 * sim.Millisecond
	}
	res := &VoIPResult{Scheme: cfg.Scheme, UseVO: cfg.UseVO, Delay: cfg.WiredDelay}
	for _, m := range eachRep(cfg.Run, func(run RunConfig) *campaign.Metrics {
		m, _ := voipInstance(cfg).Execute(run)
		return m
	}) {
		mos, _ := m.Scalar("mos")
		total, _ := m.Scalar("thrp-mbps")
		res.MOS += mos
		res.TotalMbps += total
	}
	f := float64(cfg.Run.Reps)
	res.MOS /= f
	res.TotalMbps /= f
	return res
}

// String renders one cell.
func (r *VoIPResult) String() string {
	qos := "BE"
	if r.UseVO {
		qos = "VO"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s qos=%s delay=%-5s MOS=%.2f thrp=%.1f Mbps\n",
		r.Scheme, qos, r.Delay, r.MOS, r.TotalMbps)
	return b.String()
}
