package exp

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/stats"
)

// identityInstance is a composition exercising airtime, goodput,
// aggregation and latency surfaces at once, used to compare the two
// topology forms.
func identityInstance(cfg NetConfig) *Instance {
	return &Instance{
		Net: cfg,
		Workloads: []*Workload{
			UDPFlood(20e6),
			Pings(0),
		},
		Probes: []Probe{
			PerStation(ShareCol("share-"), GoodputCol("goodput-"), AggCol("agg-")),
			Jain("jain"),
			SumRxMbps("total-mbps"),
		},
	}
}

// TestOneBSSWorldIdentity: a world built through the multi-BSS BSSs form
// with a single cell reproduces the legacy Stations form exactly — same
// airtime trajectory, same byte counts, same RTT samples — across all
// five paper schemes. Float equality is exact: the two forms must build
// the very same world.
func TestOneBSSWorldIdentity(t *testing.T) {
	run := RunConfig{Seed: 11, Duration: 2 * sim.Second, Warmup: sim.Second}
	for _, name := range fivePaperSchemes {
		scheme, err := ParseScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		legacy := NetConfig{Scheme: scheme, Stations: FourStations()}
		world := NetConfig{Scheme: scheme, BSSs: []BSSSpec{{Name: "ap", Stations: FourStations()}}}

		_, rtA := identityInstance(legacy).Execute(run)
		_, rtB := identityInstance(world).Execute(run)

		cmp := func(metric string, a, b []float64) {
			t.Helper()
			if len(a) != len(b) {
				t.Fatalf("%s/%s: lengths %d vs %d", name, metric, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s/%s[%d]: legacy %v, 1-BSS world %v", name, metric, i, a[i], b[i])
				}
			}
		}
		cmp("shares", rtA.Shares(), rtB.Shares())
		cmp("goodputs", rtA.Goodputs(), rtB.Goodputs())
		cmp("airtime", rtA.AirDeltas(), rtB.AirDeltas())
		for i := range rtA.World().Stations {
			var sa, sb stats.Sample
			rtA.RTT(i, &sa)
			rtB.RTT(i, &sb)
			if sa.N() != sb.N() || sa.Mean() != sb.Mean() || sa.Median() != sb.Median() {
				t.Errorf("%s/rtt[%d]: legacy (n=%d mean=%v), 1-BSS world (n=%d mean=%v)",
					name, i, sa.N(), sa.Mean(), sb.N(), sb.Mean())
			}
		}
		// The single-cell world also wires the flattened views coherently.
		w := rtB.World()
		if w.BSSCount() != 1 {
			t.Fatalf("%s: BSSCount = %d, want 1", name, w.BSSCount())
		}
		if lo, hi := w.BSSRange(0); lo != 0 || hi != len(w.Stations) {
			t.Fatalf("%s: BSSRange(0) = [%d,%d), want [0,%d)", name, lo, hi, len(w.Stations))
		}
	}
}

// TestDenseDeterministicAcrossWorkers: the dense multi-BSS scenario's
// aggregated artifact is byte-identical for 1, 4 and 8 workers.
func TestDenseDeterministicAcrossWorkers(t *testing.T) {
	plan := func(workers int) campaign.Plan {
		return campaign.Plan{
			Scenarios: []string{"dense"},
			Overrides: map[string][]string{
				"scheme":   {"Airtime", "FIFO"},
				"stations": {"40"},
				"bss":      {"4"},
			},
			Reps:     2,
			Duration: 2 * sim.Second,
			Warmup:   1 * sim.Second,
			BaseSeed: 11,
			Workers:  workers,
		}
	}
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := NewRegistry().Execute(plan(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Cells) != 2 {
			t.Fatalf("workers=%d: cells = %d, want 2", workers, len(res.Cells))
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(ref, buf.Bytes()) {
			t.Fatalf("workers=%d artifact differs from workers=1", workers)
		}
	}
}

// TestDenseProbeColumns: the dense scenario's emitted metric set matches
// its declared Meta exactly — per-BSS columns are stable in both name
// and order, including the RTT distributions of BSSs whose pings see no
// replies.
func TestDenseProbeColumns(t *testing.T) {
	spec := SpecDense()
	inst, err := spec.Build(Params{"scheme": "Airtime", "stations": "24", "bss": "4"})
	if err != nil {
		t.Fatal(err)
	}
	meta := inst.Meta()
	if meta.Topology == nil {
		t.Fatal("dense instance has no topology metadata")
	}
	if meta.Topology.BSSCount != 4 || meta.Topology.TotalStations != 24 {
		t.Fatalf("topology = %d BSS / %d stations, want 4/24", meta.Topology.BSSCount, meta.Topology.TotalStations)
	}

	m, _ := inst.Execute(RunConfig{Seed: 5, Duration: sim.Second, Warmup: sim.Second / 2})
	for _, want := range meta.MetricNames() {
		_, isScalar := m.Scalar(want)
		if !isScalar && m.Sample(want) == nil {
			t.Errorf("declared metric %q was not emitted", want)
		}
	}
}

// TestBSSBusyDeltas: the OBSS occupancy split over the measurement
// window covers the whole world and every saturated BSS holds a
// non-trivial share.
func TestBSSBusyDeltas(t *testing.T) {
	inst, err := SpecDense().Build(Params{"scheme": "FIFO", "stations": "16", "bss": "4"})
	if err != nil {
		t.Fatal(err)
	}
	_, rt := inst.Execute(RunConfig{Seed: 3, Duration: 2 * sim.Second, Warmup: sim.Second})
	deltas := rt.BSSBusyDeltas()
	if len(deltas) != 4 {
		t.Fatalf("deltas = %d entries, want 4", len(deltas))
	}
	shares := stats.Shares(deltas)
	for b, s := range shares {
		if s < 0.1 || s > 0.5 {
			t.Errorf("BSS %d busy share = %.3f, want a real slice of the medium", b, s)
		}
	}
}

// TestBuildWorldAllocBudget bounds the heap objects world construction
// makes per station. Station state keeps its per-AC TID state, driver
// FIFOs and scheduler entries in a few allocations (see DESIGN.md,
// "World-scoped construction state"): about 23 per station under
// Airtime and 19 under FQ-CoDel with Go 1.24. The budget sits below the
// 30 CI's construction gate allows so that one stray allocation per TID
// (four per station, such as a backlog closure per scheduler entry)
// fails here, while leaving room for toolchain drift in map and slice
// allocation.
func TestBuildWorldAllocBudget(t *testing.T) {
	const stations, budget = 1000, 26
	for _, scheme := range []mac.Scheme{mac.SchemeAirtimeFQ, mac.SchemeFQCoDel} {
		cfg := NetConfig{Scheme: scheme, BSSs: DenseTopology(stations, 1)}
		allocs := testing.AllocsPerRun(3, func() { BuildWorld(cfg) })
		if per := allocs / stations; per > budget {
			t.Errorf("%v: %.1f allocations per station building a %d-station world, budget %d",
				scheme, per, stations, budget)
		}
	}
}

// BenchmarkBuildWorld times world construction alone — the dense
// scenario's one-BSS Airtime topology at 1k and 8k stations, no traffic.
// Linear construction keeps the 8k figure at about 9-11x the 1k one; CI's
// construction-scaling gate bounds the ratio.
func BenchmarkBuildWorld(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("stations=%d", n), func(b *testing.B) {
			cfg := NetConfig{Scheme: mac.SchemeAirtimeFQ, BSSs: DenseTopology(n, 1)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := BuildWorld(cfg); len(w.Stations) != n {
					b.Fatalf("built %d stations, want %d", len(w.Stations), n)
				}
			}
		})
	}
}
