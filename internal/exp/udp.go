package exp

import (
	"fmt"
	"strings"

	"repro/internal/airtime"
	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/traffic"
)

// UDPConfig configures the one-way UDP flood experiment behind Figure 5
// and the measured column of Table 1.
type UDPConfig struct {
	Run     RunConfig
	Scheme  mac.Scheme
	RateBps float64 // offered load per station (default 50 Mbps)

	// Weights assigns relative airtime weights by station name (only
	// weight-honouring schemes such as Weighted-Airtime react).
	Weights map[string]float64
}

// UDPResult reports per-station airtime shares, goodput and mean
// aggregation for one scheme.
type UDPResult struct {
	Scheme   mac.Scheme
	Names    []string
	Shares   []float64 // airtime fraction per station
	Goodput  []float64 // bits/s per station
	AggMean  []float64 // mean A-MPDU size in packets
	TotalBps float64
}

// udpInstance composes the experiment: a CBR flood to every station,
// per-station share/goodput/aggregation columns plus the total.
func udpInstance(cfg UDPConfig) *Instance {
	if cfg.RateBps <= 0 {
		cfg.RateBps = 50e6
	}
	return &Instance{
		Net: NetConfig{
			Scheme: cfg.Scheme, Stations: DefaultStations(), Weights: cfg.Weights,
		},
		Workloads: []*Workload{UDPFlood(cfg.RateBps)},
		Probes: []Probe{
			PerStation(ShareCol("share-"), GoodputCol("goodput-mbps-"), AggCol("aggr-")),
			TotalGoodput("total-mbps"),
		},
	}
}

// CheckUDPRate reports whether a per-station CBR load of mbps megabits
// per second can be simulated. The source ticks once per 1500-byte
// datagram (its default size), and that period must be an in-range
// sim.Time of at least 1 ns, which rules out zero, negative and NaN
// rates too.
func CheckUDPRate(mbps float64) error {
	if _, ok := simDuration(traffic.CBRGapNs(1500, mbps*1e6)); !ok {
		return fmt.Errorf("%v gives no simulable send interval", mbps)
	}
	return nil
}

// CheckAirtimeWeight reports whether w is a usable airtime weight. The
// scheduler replenishes w × quantum of airtime per round; a quantum
// under 1 ns (or past sim.Time) never lets the station's deficit turn
// positive, so Next would spin. Zero, negative and NaN weights fail the
// same test.
func CheckAirtimeWeight(w float64) error {
	if _, ok := simDuration(float64(airtime.DefaultQuantum) * w); !ok {
		return fmt.Errorf("%v gives no simulable airtime quantum", w)
	}
	return nil
}

// SpecUDP is the declarative form of the experiment.
func SpecUDP() *Spec {
	return &Spec{
		Name: "udp",
		Desc: "airtime shares and goodput under one-way UDP (Figure 5)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: schemeNames(mac.Schemes)},
			{Name: "rate-mbps", Values: []string{"50"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			rate, err := p.Float("rate-mbps")
			if err != nil {
				return nil, err
			}
			if err := CheckUDPRate(rate); err != nil {
				return nil, fmt.Errorf("rate-mbps %w", err)
			}
			return udpInstance(UDPConfig{Scheme: scheme, RateBps: rate * 1e6}), nil
		},
	}
}

// SpecWeightedUDP is the UDP experiment under per-station airtime
// weights (the Weighted-Airtime extension scheme's policy knob).
func SpecWeightedUDP() *Spec {
	return &Spec{
		Name: "weighted-udp",
		Desc: "airtime shares under per-station weights (Weighted-Airtime scheme)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"Weighted-Airtime"}}, // sweep: any registered scheme
			{Name: "slow-weight", Values: []string{"2"}},           // sweep: 0.5,1,2,4
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			w, err := p.Float("slow-weight")
			if err != nil {
				return nil, err
			}
			if err := CheckAirtimeWeight(w); err != nil {
				return nil, fmt.Errorf("slow-weight %w", err)
			}
			inst := udpInstance(UDPConfig{
				Scheme: scheme, RateBps: 50e6,
				Weights: map[string]float64{"slow": w},
			})
			inst.Probes = []Probe{
				PerStation(ShareCol("share-"), GoodputCol("goodput-mbps-")),
			}
			return inst, nil
		},
	}
}

// udpRep executes one repetition and folds it into a UDPResult.
func udpRep(run RunConfig, cfg UDPConfig) *UDPResult {
	_, rt := udpInstance(cfg).Execute(run)
	n := rt.Net()
	out := &UDPResult{Names: n.StationNames()}
	shares := rt.Shares()
	gps := rt.Goodputs()
	for i := range n.Stations {
		out.Shares = append(out.Shares, shares[i])
		out.Goodput = append(out.Goodput, gps[i])
		out.TotalBps += gps[i]
		out.AggMean = append(out.AggMean, rt.AggMean(i))
	}
	return out
}

// RunUDP executes the experiment, repetitions in parallel. Results
// average over repetitions.
func RunUDP(cfg UDPConfig) *UDPResult {
	cfg.Run.fill()
	var res *UDPResult
	for _, one := range eachRep(cfg.Run, func(run RunConfig) *UDPResult {
		return udpRep(run, cfg)
	}) {
		res = accumulate(res, one, cfg.Scheme)
	}
	finish(res, cfg.Run.Reps)
	return res
}

func accumulate(acc, one *UDPResult, scheme mac.Scheme) *UDPResult {
	if acc == nil {
		one.Scheme = scheme
		return one
	}
	for i := range acc.Shares {
		acc.Shares[i] += one.Shares[i]
		acc.Goodput[i] += one.Goodput[i]
		acc.AggMean[i] += one.AggMean[i]
	}
	acc.TotalBps += one.TotalBps
	return acc
}

func finish(res *UDPResult, reps int) {
	if res == nil || reps <= 1 {
		return
	}
	f := float64(reps)
	for i := range res.Shares {
		res.Shares[i] /= f
		res.Goodput[i] /= f
		res.AggMean[i] /= f
	}
	res.TotalBps /= f
}

// String renders per-station rows.
func (r *UDPResult) String() string {
	var b strings.Builder
	for i, name := range r.Names {
		fmt.Fprintf(&b, "%-8s %-6s airtime=%-6s goodput=%6s Mbps  aggr=%5.2f\n",
			r.Scheme, name, pct(r.Shares[i]), fmtMbps(r.Goodput[i]), r.AggMean[i])
	}
	fmt.Fprintf(&b, "%-8s total goodput %s Mbps\n", r.Scheme, fmtMbps(r.TotalBps))
	return b.String()
}

// Table1Row is one line of the reproduced Table 1: model predictions plus
// the measured UDP throughput.
type Table1Row struct {
	Name         string
	AggSize      float64
	AirtimeShare float64 // T(i), model
	PHYMbps      float64
	BaseMbps     float64 // R(n,l,r)
	RateMbps     float64 // R(i) = T(i)·Base
	ExpMbps      float64 // measured
}

// Table1Result reproduces Table 1: the baseline (FIFO) block and the
// airtime-fairness block.
type Table1Result struct {
	Baseline, Fair []Table1Row
}

// SpecTable1 is the declarative form of the Table 1 comparison: the UDP
// flood workload with the model-versus-measured probe.
func SpecTable1() *Spec {
	return &Spec{
		Name: "table1",
		Desc: "analytical model vs measured UDP throughput (Table 1)",
		Axes: []campaign.Axis{
			{Name: "scheme", Values: []string{"FIFO", "Airtime"}},
		},
		Build: func(p Params) (*Instance, error) {
			scheme, err := p.Scheme()
			if err != nil {
				return nil, err
			}
			inst := udpInstance(UDPConfig{Scheme: scheme})
			inst.Probes = []Probe{Table1(scheme == mac.SchemeAirtimeFQ)}
			return inst, nil
		},
	}
}

// table1Rows measures one scheme and feeds the measured aggregation
// levels into the analytical model (§2.2.1) to build one table block.
func table1Rows(run RunConfig, fair bool) []Table1Row {
	scheme := mac.SchemeFIFO
	if fair {
		scheme = mac.SchemeAirtimeFQ
	}
	m := RunUDP(UDPConfig{Run: run, Scheme: scheme})
	params := make([]model.StationParams, len(m.Names))
	specs := DefaultStations()
	for i := range m.Names {
		agg := m.AggMean[i]
		if agg < 1 {
			agg = 1
		}
		params[i] = model.StationParams{
			Name: m.Names[i], AggSize: agg, PktLen: 1500, Rate: specs[i].Rate,
		}
	}
	preds := model.Predict(params, fair)
	rows := make([]Table1Row, len(preds))
	for i, p := range preds {
		rows[i] = Table1Row{
			Name:         p.Name,
			AggSize:      params[i].AggSize,
			AirtimeShare: p.AirtimeShare,
			PHYMbps:      params[i].Rate.Mbps(),
			BaseMbps:     p.BaseRate / 1e6,
			RateMbps:     p.Rate / 1e6,
			ExpMbps:      m.Goodput[i] / 1e6,
		}
	}
	return rows
}

// RunTable1 runs the UDP experiment under the FIFO and Airtime schemes —
// in parallel, splitting the worker budget between the two scheme blocks
// and the repetitions inside each — and assembles the paper's Table 1.
func RunTable1(run RunConfig) *Table1Result {
	outer, inner := campaign.Split(run.Workers, 2)
	innerRun := run
	innerRun.Workers = inner
	blocks := campaign.Map(2, outer, func(i int) []Table1Row {
		return table1Rows(innerRun, i == 1)
	})
	return &Table1Result{Baseline: blocks[0], Fair: blocks[1]}
}

// String renders the two blocks in the paper's layout.
func (t *Table1Result) String() string {
	var b strings.Builder
	block := func(title string, rows []Table1Row) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "  %-6s %-8s %-6s %8s %8s %8s %8s\n",
			"sta", "aggr", "T(i)", "PHY", "Base", "R(i)", "Exp")
		var tot, totExp float64
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-6s %-8.2f %-6s %8.1f %8.1f %8.1f %8.1f\n",
				r.Name, r.AggSize, pct(r.AirtimeShare), r.PHYMbps, r.BaseMbps,
				r.RateMbps, r.ExpMbps)
			tot += r.RateMbps
			totExp += r.ExpMbps
		}
		fmt.Fprintf(&b, "  total: model %.1f Mbps, measured %.1f Mbps\n", tot, totExp)
	}
	block("Baseline (FIFO queue)", t.Baseline)
	block("Airtime fairness", t.Fair)
	return b.String()
}
