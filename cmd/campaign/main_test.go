package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/campaign/wire"
	"repro/internal/exp"
)

// TestRemoteWithoutFingerprintFlag: `campaign run -remote URL` with no
// -fingerprint talks to a `campaign serve` worker that has none either.
// The plan and shard client are built exactly as execute builds them;
// the worker resolves its fingerprint exactly as serve does. The run
// must succeed over the wire and match a local run byte for byte.
func TestRemoteWithoutFingerprintFlag(t *testing.T) {
	reg := exp.NewRegistry()
	var shards atomic.Int64
	srv := &wire.Server{Registry: reg, Fingerprint: resolveFingerprint(""), Workers: 1}
	h := srv.Handler()
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/shard" {
			shards.Add(1)
		}
		h.ServeHTTP(rw, r)
	}))
	defer w.Close()

	o := &options{
		scenarios: stringList{"udp"},
		axes:      axisOverrides{"scheme": {"FIFO", "Airtime"}},
		reps:      1, dur: 0.3, warmup: 0.2, seed: 42, workers: 1,
		remotes: stringList{w.URL},
	}
	remote, err := reg.Execute(newPlan(context.Background(), o, nil))
	if err != nil {
		t.Fatalf("remote run without -fingerprint: %v", err)
	}
	if shards.Load() == 0 {
		t.Fatal("no shard reached the worker")
	}
	if remote.Stats.Simulated != remote.Runs {
		t.Fatalf("simulated %d of %d runs", remote.Stats.Simulated, remote.Runs)
	}

	o.remotes = nil
	local, err := reg.Execute(newPlan(context.Background(), o, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifact(t, remote), artifact(t, local)) {
		t.Fatal("remote artifact differs from local")
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
