package mac

import (
	"fmt"
	"testing"

	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestStationIndexProperty drives random AddStation/RemoveStation
// sequences over clustered, descending and sparse identifiers and checks
// after every step that the dense index and route agree with the
// authoritative stations map, for every station and for absent
// identifiers alike. It also pins the index's shape: the window never
// exceeds staSpan entries, and stations spanning staSpan or more fall
// back to the map.
func TestStationIndexProperty(t *testing.T) {
	gens := []struct {
		name string
		id   func(r *sim.Rand, step int) pkt.NodeID
	}{
		{"clustered", func(r *sim.Rand, _ int) pkt.NodeID { return 1000 + pkt.NodeID(r.Intn(200)) }},
		{"descending", func(r *sim.Rand, step int) pkt.NodeID { return 60000 - pkt.NodeID(3*step+r.Intn(3)) }},
		{"sparse", func(r *sim.Rand, _ int) pkt.NodeID {
			return pkt.NodeID(r.Intn(3))*(staSpan/2+1) + pkt.NodeID(r.Intn(50))
		}},
	}
	const steps = 400
	for _, g := range gens {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", g.name, seed), func(t *testing.T) {
				s := sim.New(seed)
				r := s.Rand()
				env := NewEnv(s)
				ap := mustNode(t, env, -7, "ap", Config{Scheme: SchemeAirtimeFQ})
				peers := map[pkt.NodeID]*Node{}
				var dense, sparse int
				for step := 0; step < steps; step++ {
					if len(ap.stationOrder) > 0 && r.Intn(5) < 2 {
						ap.RemoveStation(ap.stationOrder[r.Intn(len(ap.stationOrder))])
					} else if id := g.id(r, step); ap.stations[id] == nil {
						p := peers[id]
						if p == nil {
							p = mustNode(t, env, id, "sta", Config{})
							peers[id] = p
						}
						ap.AddStation(p, phy.MCS(7, true))
					}
					checkStationIndex(t, ap, peers, r)
					if t.Failed() {
						t.Fatalf("index diverged from the map at step %d", step)
					}
					if len(ap.stations) > 0 {
						if len(ap.staSlice) > 0 {
							dense++
						} else {
							sparse++
						}
					}
				}
				if dense == 0 {
					t.Errorf("the dense index never served a lookup")
				}
				if g.name == "sparse" && sparse == 0 {
					t.Errorf("sparse identifiers never fell back to the map")
				}
			})
		}
	}
}

// checkStationIndex compares lookupStation and route against the
// stations map for every present station, every identifier ever used,
// the window's edges and a few random identifiers.
func checkStationIndex(t *testing.T, n *Node, peers map[pkt.NodeID]*Node, r *sim.Rand) {
	t.Helper()
	if len(n.stations) != len(n.stationOrder) {
		t.Errorf("stations map holds %d, order holds %d", len(n.stations), len(n.stationOrder))
	}
	if len(n.staSlice) > staSpan {
		t.Errorf("window holds %d entries, beyond staSpan %d", len(n.staSlice), staSpan)
	}
	if len(n.stationOrder) > 0 {
		lo, hi := n.stationOrder[0].Peer.ID, n.stationOrder[0].Peer.ID
		for _, s := range n.stationOrder {
			lo, hi = min(lo, s.Peer.ID), max(hi, s.Peer.ID)
		}
		if hi-lo >= staSpan && len(n.staSlice) > 0 {
			t.Errorf("stations span %d identifiers, yet the dense index is in use", hi-lo+1)
		}
	}
	probes := []pkt.NodeID{n.staLow - 1, n.staLow, n.staLow + pkt.NodeID(len(n.staSlice))}
	for id := range peers {
		probes = append(probes, id)
	}
	for i := 0; i < 8; i++ {
		probes = append(probes, pkt.NodeID(r.Intn(3*staSpan))-staSpan)
	}
	for _, id := range probes {
		want := n.stations[id]
		if got := n.lookupStation(id); got != want {
			t.Errorf("lookupStation(%d) = %p, map holds %p", id, got, want)
		}
		wantRoute := want
		if wantRoute == nil {
			wantRoute = n.defaultPeer
		}
		if got := n.route(&pkt.Packet{Dst: id}); got != wantRoute {
			t.Errorf("route(%d) = %p, want %p", id, got, wantRoute)
		}
	}
}
