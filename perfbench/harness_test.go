package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/sim"
)

// tinyRemote is a miniature sweep-remote: four udp cells × 2 reps, half
// served from the pre-filled cache, half simulated on the loopback worker.
var tinyRemote = &workload{
	name: "tiny-remote", nominalS: 1, remote: true,
	plan: func(seed uint64) campaign.Plan {
		return campaign.Plan{
			BaseSeed:  seed,
			Scenarios: []string{"udp"},
			Overrides: map[string][]string{
				"scheme":    {"FIFO", "Airtime"},
				"rate-mbps": {"10", "20"},
			},
			Reps:     2,
			Duration: 100 * sim.Millisecond,
			Warmup:   50 * sim.Millisecond,
		}
	},
}

func TestShimsKeepArtifactByteIdentical(t *testing.T) {
	b := newBench(tinyRemote, 7, t.TempDir())
	plain := b.once()
	if plain.err != nil {
		t.Fatal(plain.err)
	}
	traced, vals := b.tracedOnce(nil)
	if traced.err != nil {
		t.Fatal(traced.err)
	}
	if traced.digest != plain.digest {
		t.Errorf("traced artifact %s, untraced %s", traced.digest, plain.digest)
	}
	ref, err := b.reference()
	if err != nil {
		t.Fatal(err)
	}
	if ref != plain.digest {
		t.Errorf("cache+wire artifact %s, local no-cache reference %s", plain.digest, ref)
	}
	n, mismatched, err := b.checkTracedBlobs()
	if err != nil || n != 4 || mismatched != 0 {
		t.Errorf("traced blobs: %d checked, %d mismatched, err %v; want 4, 0, nil", n, mismatched, err)
	}

	// Every seam carried work, and the counts follow from the plan.
	want := map[string]float64{
		"cache.hits": 4, "cache.misses": 4, "cache.hit_ratio": 0.5,
		"wire.requests": 1, "wire.useful_ratio": 1,
	}
	for k, v := range want {
		if vals[k] != v {
			t.Errorf("%s = %v, want %v", k, vals[k], v)
		}
	}
	for _, k := range []string{"cache.get_s", "cache.put_s", "journal.append_s", "journal.bytes",
		"wire.dispatch_s", "wire.shard_rtt_ms", "wire.server_ms", "exp.world_build_s", "sim.run_s",
		"sim.events", "mac.input_pkts", "pkt.pool_gets", "campaign.encode_bytes"} {
		if vals[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, vals[k])
		}
	}
}

func TestTracedCountsRepeatExactly(t *testing.T) {
	b := newBench(tinyRemote, 7, t.TempDir())
	_, first := b.tracedOnce(nil)
	_, second := b.tracedOnce(nil)
	for _, k := range []string{"sim.events", "sim.event_allocs", "mac.input_pkts", "mac.input_drops",
		"mac.retry_drops", "mac.aggr_mean", "pkt.pool_gets", "cache.hits", "campaign.encode_bytes"} {
		if first[k] != second[k] {
			t.Errorf("%s: %v then %v, want identical", k, first[k], second[k])
		}
	}
}

func TestFailFracCountsErroringScenario(t *testing.T) {
	udp := exp.SpecUDP()
	flaky := &exp.Spec{
		Name: "flaky",
		Axes: []campaign.Axis{{Name: "cell", Values: []string{"ok", "bad"}}},
		Build: func(p exp.Params) (*exp.Instance, error) {
			if p.Str("cell") == "bad" {
				return nil, errors.New("bad cell")
			}
			return udp.Build(udp.Defaults())
		},
	}
	w := &workload{
		name: "flaky", nominalS: 1,
		specsFn: func() []*exp.Spec { return []*exp.Spec{flaky} },
		plan: func(seed uint64) campaign.Plan {
			return campaign.Plan{BaseSeed: seed, Reps: 2, Duration: 50 * sim.Millisecond, Warmup: 50 * sim.Millisecond}
		},
	}
	r := &runner{b: newBench(w, 1, t.TempDir()), iters: 1, log: testWriter{t}}
	rep := r.untraced()
	res := rep.result
	if res.Attempted != 4 {
		t.Fatalf("attempted %d, want 4 (2 cells × 2 reps)", res.Attempted)
	}
	if res.Failed < 1 || res.Failed > 2 {
		t.Errorf("failed %d, want the erroring cell's jobs (1-2) — the engine stops scheduling after the first error", res.Failed)
	}
	if got, want := rep.EndToEnd["fail_frac"].Value, float64(res.Failed)/4; got != want {
		t.Errorf("fail_frac %v, want %v", got, want)
	}
	ok := true
	for _, c := range rep.Checks {
		ok = ok && c.OK
	}
	if ok {
		t.Error("every check passed although a scenario errored")
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json's metric and
// workload lists in step with what the driver prints.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the driver prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, driver %+v", kind, i, got[i], m)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}
