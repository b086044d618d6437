package sched

import (
	"testing"

	"repro/internal/sim"
)

// probe is a switchable backlog flag.
type probe struct{ on bool }

func (p *probe) Backlogged() bool { return p.on }

// TestRoundRobinRotation: backlogged stations take strict turns, idle
// stations leave the rotation and re-enter on Activate.
func TestRoundRobinRotation(t *testing.T) {
	rr := NewRoundRobin()
	pa, pb, pc := &probe{on: true}, &probe{on: true}, &probe{on: true}
	a := rr.Register(pa)
	b := rr.Register(pb)
	c := rr.Register(pc)
	a.User, b.User, c.User = "a", "b", "c"
	rr.Activate(a)
	rr.Activate(b)
	rr.Activate(c)

	var order []string
	for i := 0; i < 6; i++ {
		order = append(order, rr.Next().User.(string))
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("turn %d = %q, want %q (order %v)", i, order[i], want[i], order)
		}
	}

	// b drains: it leaves the rotation; a and c keep alternating.
	pb.on = false
	order = order[:0]
	for i := 0; i < 4; i++ {
		order = append(order, rr.Next().User.(string))
	}
	for i, w := range []string{"a", "c", "a", "c"} {
		if order[i] != w {
			t.Fatalf("after drain, turn %d = %q, want %q", i, order[i], w)
		}
	}

	// b becomes backlogged again and rejoins.
	pb.on = true
	rr.Activate(b)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		seen[rr.Next().User.(string)] = true
	}
	if !seen["b"] {
		t.Fatal("reactivated station never scheduled")
	}

	// Everyone idle: Next returns nil and the rotation empties.
	pa.on, pb.on, pc.on = false, false, false
	if e := rr.Next(); e != nil {
		t.Fatalf("Next with no backlog = %v, want nil", e.User)
	}
	if rr.Queued() {
		t.Fatal("rotation not empty after universal drain")
	}
}

// TestAirtimeAdapterChargesAndMapsBack: the adapter maps scheduler picks
// back to the registered entries and bills only true airtime.
func TestAirtimeAdapterChargesAndMapsBack(t *testing.T) {
	a := NewAirtime(0, true)
	p1, p2 := &probe{on: true}, &probe{on: true}
	e1 := a.Register(p1)
	e2 := a.Register(p2)
	e1.User, e2.User = 1, 2
	a.Activate(e1)
	a.Activate(e2)

	got := a.Next()
	if got != e1 && got != e2 {
		t.Fatalf("Next returned unknown entry %v", got)
	}
	// Charging the wall-clock argument must not affect the deficit.
	before := a.station(got).Deficit()
	a.ChargeTx(got, 100*sim.Microsecond, 5*sim.Millisecond)
	if d := before - a.station(got).Deficit(); d != 100*sim.Microsecond {
		t.Fatalf("deficit moved by %v, want the air duration 100µs", d)
	}
}

// TestWeightedAirtimeShares: with a 2:1 weight ratio the weighted
// scheduler grants the heavy station about twice the airtime.
func TestWeightedAirtimeShares(t *testing.T) {
	a := NewWeightedAirtime(0, false)
	p1, p2 := &probe{on: true}, &probe{on: true}
	heavy := a.Register(p1)
	light := a.Register(p2)
	a.SetWeight(heavy, 2)
	a.Activate(heavy)
	a.Activate(light)

	var served [2]sim.Time
	cost := 150 * sim.Microsecond
	for i := 0; i < 4000; i++ {
		e := a.Next()
		if e == nil {
			t.Fatal("scheduler ran dry with permanent backlog")
		}
		if e == heavy {
			served[0] += cost
		} else {
			served[1] += cost
		}
		a.ChargeTx(e, cost, cost)
	}
	ratio := float64(served[0]) / float64(served[1])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("airtime ratio heavy/light = %.2f, want ~2", ratio)
	}
}

// TestPlainAirtimeIgnoresWeights: the unweighted adapter's SetWeight is a
// no-op, so the paper's scheme cannot be skewed accidentally.
func TestPlainAirtimeIgnoresWeights(t *testing.T) {
	a := NewAirtime(0, false)
	p1, p2 := &probe{on: true}, &probe{on: true}
	e1 := a.Register(p1)
	e2 := a.Register(p2)
	var w Weighted = a
	w.SetWeight(e1, 8)
	a.Activate(e1)
	a.Activate(e2)

	var served [2]int
	cost := 150 * sim.Microsecond
	for i := 0; i < 2000; i++ {
		e := a.Next()
		if e == e1 {
			served[0]++
		} else {
			served[1]++
		}
		a.ChargeTx(e, cost, cost)
	}
	diff := float64(served[0]-served[1]) / float64(served[0]+served[1])
	if diff > 0.05 || diff < -0.05 {
		t.Fatalf("plain airtime skewed by ignored weight: %d vs %d", served[0], served[1])
	}
}

// TestDTTAdapterBillsWallClock: the DTT adapter charges the wall-clock
// duration and ignores received airtime, per the original proposal.
func TestDTTAdapterBillsWallClock(t *testing.T) {
	d := NewDTT(0)
	p := &probe{on: true}
	e := d.Register(p)
	d.Activate(e)
	if got := d.Next(); got != e {
		t.Fatalf("Next = %v, want the registered entry", got)
	}
	before := d.entry(e).Credit()
	d.ChargeTx(e, 100*sim.Microsecond, 900*sim.Microsecond)
	if spent := before - d.entry(e).Credit(); spent != 900*sim.Microsecond {
		t.Fatalf("DTT billed %v, want the wall-clock 900µs", spent)
	}
	d.ChargeRx(e, sim.Second) // must be ignored
	if got := d.entry(e).Credit(); got != before-900*sim.Microsecond {
		t.Fatal("DTT accounted received airtime")
	}
}

// TestNextReturnsRegisteredEntry: every scheduler hands back the very
// *Entry that Register returned — the MAC maps picks to stations through
// it — and stops picking an entry once its backlog drains.
func TestNextReturnsRegisteredEntry(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   StationScheduler
	}{
		{"RoundRobin", NewRoundRobin()},
		{"Airtime", NewAirtime(0, true)},
		{"Weighted-Airtime", NewWeightedAirtime(0, true)},
		{"DTT", NewDTT(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probes := make([]probe, 5)
			index := make(map[*Entry]int)
			for i := range probes {
				probes[i].on = true
				e := tc.sc.Register(&probes[i])
				index[e] = i
				tc.sc.Activate(e)
			}
			pick := func() int {
				e := tc.sc.Next()
				i, ok := index[e]
				if !ok {
					t.Fatalf("Next returned %p, not an entry Register returned", e)
				}
				tc.sc.ChargeTx(e, 100*sim.Microsecond, 100*sim.Microsecond)
				return i
			}
			picked := make([]int, len(probes))
			for k := 0; k < 200; k++ {
				picked[pick()]++
			}
			for i, c := range picked {
				if c == 0 {
					t.Errorf("entry %d never picked", i)
				}
			}
			probes[2].on = false
			for k := 0; k < 200; k++ {
				if i := pick(); i == 2 {
					t.Fatalf("pick %d: drained entry 2 still scheduled", k)
				}
			}
		})
	}
}

// TestSetWeightReachesItsEntry: SetWeight changes the weight of exactly
// the entry it is given.
func TestSetWeightReachesItsEntry(t *testing.T) {
	a := NewWeightedAirtime(0, true)
	entries := make([]*Entry, 4)
	for i := range entries {
		entries[i] = a.Register(&probe{})
	}
	for i, e := range entries {
		a.SetWeight(e, float64(i+1))
	}
	for i, e := range entries {
		if w := a.station(e).Weight; w != float64(i+1) {
			t.Errorf("entry %d weight = %v, want %d", i, w, i+1)
		}
	}
}
