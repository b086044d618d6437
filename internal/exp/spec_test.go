package exp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// The hashes below were captured from the pre-Spec bespoke runners (one
// hand-wired Run function per scenario) on the identical plans. They pin
// the API redesign's acceptance criterion: every paper experiment,
// rewritten as a declarative Spec through the generic runner, must
// produce campaign artifacts byte-identical to the bespoke
// implementations — same seeds, same attachment order, same metric
// names in the same order, down to the JSON bytes. The plans cover the
// non-default variants too (bidirectional traffic, the slow-station
// browser, weighted stations). If a deliberate behaviour change ever
// invalidates them, regenerate with the plans below and document why.
var specGoldenArtifacts = map[string]string{
	"latency":      "8b8ab31c356efa050489d2130dcc5ba91fdc49f1bcc6481b46198218e8abe791",
	"udp":          "776fd03c147a994fb5c022bde53f8fb78ef55e64d50aa8090edf2f5136070f84",
	"fairness":     "1bad22ee926bf790a1cc13e1b01e45f1aff3deff801df58574b6ababec602bc6",
	"throughput":   "5099271a940f712e17f9418b22b6f4aadf4e491641456f1b5206389da1397b32",
	"sparse":       "e09364d03f1c366ad2af0c33884ec41d448cf0b32b02e97b841ee1c1482927b5",
	"scale":        "dccbeefee146f33c453c79ab0a249972c6b632c14c193c2b4d3a8cbb061e14b3",
	"voip":         "3ca6122aa6016f06679d3fea3292ee234c5b8f8c005fd3f78d3e6f9c5e909202",
	"web":          "9d60c76828e76039beba0a9cb2175e859790b1d5f679134cb2c09437a962b3a3",
	"weighted-udp": "5db0c926054d1d811a6afb770d7143565bdef13cae96cebaa1c47904529e2445",
	"table1":       "5d99d16f7215c91beab1593b3b3abf36df612678cebfcaccc31a726a878a9512",
}

// specGoldenOverrides widens each scenario's plan beyond its default
// grid so variant code paths are pinned too.
var specGoldenOverrides = map[string]map[string][]string{
	"latency":      {"dir": {"down", "bidir"}},
	"udp":          {"rate-mbps": {"20", "50"}},
	"throughput":   {"dir": {"down", "bidir"}},
	"scale":        {"stations": {"6"}},
	"web":          {"browser": {"fast", "slow"}},
	"weighted-udp": {"slow-weight": {"0.5", "2"}},
}

func specGoldenPlan(scenario string) campaign.Plan {
	return campaign.Plan{
		Scenarios: []string{scenario},
		Overrides: specGoldenOverrides[scenario],
		Reps:      2,
		Duration:  2 * sim.Second,
		Warmup:    1 * sim.Second,
		BaseSeed:  13,
		Workers:   4,
	}
}

func artifactHash(t *testing.T, plan campaign.Plan) string {
	t.Helper()
	res, err := NewRegistry().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestSpecGoldenAllScenarios: every paper scenario, run as a declarative
// Spec, reproduces the bespoke runners' artifacts byte-for-byte.
func TestSpecGoldenAllScenarios(t *testing.T) {
	for name, want := range specGoldenArtifacts {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := artifactHash(t, specGoldenPlan(name)); got != want {
				t.Errorf("artifact hash = %s, want golden %s\n"+
					"the Spec-based runner diverged from the bespoke runner's behaviour", got, want)
			}
		})
	}
}

// TestMixedWorkloadDeterminism: the composite UDP+TCP+VoIP+web scenario
// produces byte-identical artifacts for 1, 4 and 8 workers, and with
// packet pooling disabled.
func TestMixedWorkloadDeterminism(t *testing.T) {
	plan := func(workers int) campaign.Plan {
		return campaign.Plan{
			Scenarios: []string{"mixed"},
			Overrides: map[string][]string{"scheme": {"FIFO", "FQ-MAC", "Airtime"}},
			Reps:      2,
			Duration:  2 * sim.Second,
			Warmup:    1 * sim.Second,
			BaseSeed:  21,
			Workers:   workers,
		}
	}
	ref := artifactHash(t, plan(1))
	for _, workers := range []int{4, 8} {
		if got := artifactHash(t, plan(workers)); got != ref {
			t.Errorf("workers=%d artifact %s differs from workers=1 %s", workers, got, ref)
		}
	}
	pkt.SetPooling(false)
	defer pkt.SetPooling(true)
	if got := artifactHash(t, plan(4)); got != ref {
		t.Errorf("pooling-off artifact %s differs from pooling-on %s", got, ref)
	}
}

// TestMixedWorkloadMetrics: the composite scenario's probes all observe
// traffic — goodput, a scored call, completed page loads and RTTs.
func TestMixedWorkloadMetrics(t *testing.T) {
	inst, err := SpecMixed().Build(Params{"scheme": "Airtime"})
	if err != nil {
		t.Fatal(err)
	}
	m, rt := inst.Execute(RunConfig{Seed: 4, Duration: 4 * sim.Second, Warmup: 2 * sim.Second, Reps: 1})
	if mos, ok := m.Scalar("mos"); !ok || mos < 3 {
		t.Errorf("mos = %v (ok=%v), want a scored VO call", mos, ok)
	}
	if total, ok := m.Scalar("total-mbps"); !ok || total <= 0 {
		t.Errorf("total-mbps = %v (ok=%v)", total, ok)
	}
	if plt := m.Sample("plt-ms"); plt == nil || plt.N() == 0 {
		t.Error("no page loads completed")
	}
	for _, name := range []string{"fast-rtt-ms", "slow-rtt-ms"} {
		if s := m.Sample(name); s == nil || s.N() == 0 {
			t.Errorf("no %s samples", name)
		}
	}
	// The UDP and TCP stations both moved bytes.
	gps := rt.Goodputs()
	if gps[0] <= 0 || gps[3] <= 0 {
		t.Errorf("goodputs = %v, want traffic at fast1 and fast3", gps)
	}
}

// TestScenarioMetadata: every Spec-built scenario carries introspectable
// metadata — stations, workloads with phase and target, probes with the
// exact metric names the scenario emits.
func TestScenarioMetadata(t *testing.T) {
	for _, sc := range NewRegistry().Scenarios() {
		if sc.Meta == nil {
			t.Errorf("scenario %q has no metadata", sc.Name)
			continue
		}
		if len(sc.Meta.Stations) == 0 || len(sc.Meta.Workloads) == 0 || len(sc.Meta.Probes) == 0 {
			t.Errorf("scenario %q metadata incomplete: %+v", sc.Name, sc.Meta)
		}
		if len(sc.Meta.MetricNames()) == 0 {
			t.Errorf("scenario %q declares no metrics", sc.Name)
		}
	}

	// The declared metric names match what a run actually emits.
	sc := NewRegistry().Get("udp")
	want := map[string]bool{}
	for _, name := range sc.Meta.MetricNames() {
		want[name] = true
	}
	inst, err := SpecUDP().Build(Params{"scheme": "FIFO", "rate-mbps": "20"})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := inst.Execute(RunConfig{Seed: 2, Duration: sim.Second, Warmup: sim.Second / 2, Reps: 1})
	for _, name := range []string{"share-fast1", "share-slow", "goodput-mbps-fast2",
		"aggr-slow", "total-mbps"} {
		if !want[name] {
			t.Errorf("metadata missing declared metric %q (have %v)", name, sc.Meta.MetricNames())
		}
		if _, ok := m.Scalar(name); !ok {
			t.Errorf("run did not emit declared metric %q", name)
		}
	}
}

// TestSpecBuildRejectsOutOfRange: a parameter the scenario cannot
// simulate as recorded is a Build error, not a silent default (scale
// stations < 4 used to simulate 30, VoIP delay-ms 0 simulated 1 ms) or
// a simulator panic (a negative VoIP delay scheduled events in the
// past). An in-range value still builds the world its parameters
// describe.
func TestSpecBuildRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		spec     *Spec
		params   Params
		ok       bool
		stations int // built world's station count when ok
	}{
		{SpecScale(), Params{"scheme": "Airtime", "stations": "0"}, false, 0},
		{SpecScale(), Params{"scheme": "Airtime", "stations": "1"}, false, 0},
		{SpecScale(), Params{"scheme": "Airtime", "stations": "3"}, false, 0},
		{SpecScale(), Params{"scheme": "Airtime", "stations": "-2"}, false, 0},
		{SpecScale(), Params{"scheme": "Airtime", "stations": "4"}, true, 4},
		{SpecVoIP(), Params{"scheme": "FIFO", "qos": "BE", "delay-ms": "-1"}, false, 0},
		{SpecVoIP(), Params{"scheme": "FIFO", "qos": "VO", "delay-ms": "-50"}, false, 0},
		{SpecVoIP(), Params{"scheme": "FIFO", "qos": "BE", "delay-ms": "0"}, false, 0},
		{SpecVoIP(), Params{"scheme": "FIFO", "qos": "BE", "delay-ms": "1"}, true, 4},
	} {
		inst, err := tc.spec.Build(tc.params)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s %v: Build accepted an out-of-range value", tc.spec.Name, tc.params)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %v: %v", tc.spec.Name, tc.params, err)
			continue
		}
		if got := len(inst.Net.stationNames()); got != tc.stations {
			t.Errorf("%s %v: built %d stations, want %d", tc.spec.Name, tc.params, got, tc.stations)
		}
	}
}

// TestWorkloadTargets: the station selectors resolve as documented.
func TestWorkloadTargets(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	check := func(tg Target, want ...int) {
		t.Helper()
		var got []int
		for i, name := range names {
			if tg.Matches(i, len(names), name) {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s selected %v, want %v", tg.Describe(), got, want)
		}
	}
	check(AllStations(), 0, 1, 2, 3)
	check(FirstStations(2), 0, 1)
	check(StationAt(1, -1), 1, 3)
	check(AllButLast(), 0, 1, 2)
	check(StationsNamed("b", "d"), 1, 3)
}
