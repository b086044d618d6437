package airtime

import (
	"testing"

	"repro/internal/sim"
)

// fakeSta is a station whose backlog is a switchable flag.
type fakeSta struct {
	Station
	has bool
}

func (f *fakeSta) Backlogged() bool { return f.has }

func newSta(sc *Scheduler) *fakeSta {
	f := &fakeSta{has: true}
	f.Backlog = f
	sc.Activate(&f.Station)
	return f
}

func TestSingleStation(t *testing.T) {
	sc := New()
	a := newSta(sc)
	if sc.Next() != &a.Station {
		t.Fatal("single station not scheduled")
	}
	// Stays scheduled until deficit exhausted.
	sc.ChargeTx(&a.Station, 100*sim.Microsecond)
	if sc.Next() != &a.Station {
		t.Fatal("station with positive deficit lost the head")
	}
	a.has = false
	if sc.Next() != nil {
		t.Fatal("empty station still scheduled")
	}
}

// TestAirtimeFairnessLongRun: three stations with different per-aggregate
// durations must converge to equal airtime.
func TestAirtimeFairnessLongRun(t *testing.T) {
	sc := New()
	durs := []sim.Time{300 * sim.Microsecond, 1600 * sim.Microsecond, 3800 * sim.Microsecond}
	stas := make([]*fakeSta, 3)
	for i := range stas {
		stas[i] = newSta(sc)
	}
	total := make([]sim.Time, 3)
	for round := 0; round < 20000; round++ {
		st := sc.Next()
		if st == nil {
			t.Fatal("no station scheduled")
		}
		for i := range stas {
			if st == &stas[i].Station {
				sc.ChargeTx(st, durs[i])
				total[i] += durs[i]
			}
		}
	}
	sum := total[0] + total[1] + total[2]
	for i, tt := range total {
		share := float64(tt) / float64(sum)
		if share < 0.30 || share > 0.37 {
			t.Errorf("station %d airtime share %.3f, want ~1/3", i, share)
		}
	}
}

// TestDeficitRecovery: stations recover from negative deficits at the same
// rate (one quantum per round).
func TestDeficitRecovery(t *testing.T) {
	sc := &Scheduler{Quantum: 100 * sim.Microsecond, SparseOpt: true}
	a := newSta(sc)
	b := newSta(sc)
	st := sc.Next()
	if st != &a.Station {
		t.Fatal("expected a first")
	}
	// a transmits a large aggregate, going deeply negative.
	sc.ChargeTx(st, 1000*sim.Microsecond)
	// b should now be scheduled repeatedly while a recovers.
	bCount := 0
	for i := 0; i < 30; i++ {
		st := sc.Next()
		if st == &b.Station {
			bCount++
			sc.ChargeTx(st, 100*sim.Microsecond)
		} else {
			sc.ChargeTx(st, 100*sim.Microsecond)
		}
	}
	if bCount < 15 {
		t.Errorf("b scheduled only %d of 30 while a in deficit", bCount)
	}
	if a.Station.Rounds == 0 {
		t.Error("a never received a fresh quantum")
	}
}

// TestSparseStationPriority: a newly active station jumps ahead of
// existing old-list stations for one round.
func TestSparseStationPriority(t *testing.T) {
	sc := New()
	bulk := newSta(sc)
	// Rotate bulk onto the old list.
	st := sc.Next()
	sc.ChargeTx(st, 10*sim.Millisecond) // deficit goes negative
	sc.Next()                           // replenish + rotate to old
	sparse := newSta(sc)
	got := sc.Next()
	if got != &sparse.Station {
		t.Fatal("sparse station did not get priority")
	}
	if sparse.SparseTx == 0 {
		t.Error("sparse service not counted")
	}
	_ = bulk
}

// TestSparseAntiGaming: a sparse station that empties moves to the old
// list; reactivating immediately must not re-grant new-list priority.
func TestSparseAntiGaming(t *testing.T) {
	sc := New()
	bulk := newSta(sc)
	st := sc.Next()
	sc.ChargeTx(st, 10*sim.Millisecond)
	sc.Next() // bulk rotates to old list, gets fresh quantum

	sparse := newSta(sc)
	if sc.Next() != &sparse.Station {
		t.Fatal("sparse priority missing")
	}
	sparse.has = false // transmitted its only frame
	// Scheduler moves it to the old list on the next pass.
	_ = sc.Next()
	sparse.has = true
	sc.Activate(&sparse.Station) // no-op: already listed
	before := sparse.SparseTx
	for i := 0; i < 4; i++ {
		st := sc.Next()
		if st == nil {
			break
		}
		sc.ChargeTx(st, 2*sim.Millisecond)
	}
	if sparse.SparseTx != before {
		t.Error("anti-gaming violated: station re-entered the new list")
	}
	_ = bulk
}

// TestSparseOptDisabled: with the optimisation off, new stations join the
// old list directly.
func TestSparseOptDisabled(t *testing.T) {
	sc := &Scheduler{Quantum: DefaultQuantum, SparseOpt: false}
	bulk := newSta(sc)
	if sc.Next() != &bulk.Station {
		t.Fatal("bulk missing")
	}
	sparse := newSta(sc)
	if sparse.SparseTx != 0 {
		t.Fatal("sparse counter should be untouched")
	}
	// Bulk still holds the head (positive deficit): sparse must wait.
	if sc.Next() != &bulk.Station {
		t.Fatal("sparse jumped the queue with optimisation disabled")
	}
}

// TestRxChargingAffectsSchedule: airtime charged for received frames must
// push a station behind its peers (§3.2 advantage 2).
func TestRxChargingAffectsSchedule(t *testing.T) {
	sc := New()
	up := newSta(sc)
	down := newSta(sc)
	// Charge heavy received airtime to "up".
	sc.ChargeRx(&up.Station, 50*sim.Millisecond)
	served := map[*Station]int{}
	for i := 0; i < 40; i++ {
		st := sc.Next()
		served[st]++
		sc.ChargeTx(st, sim.Millisecond)
	}
	if served[&down.Station] <= served[&up.Station] {
		t.Errorf("rx charging ignored: down=%d up=%d", served[&down.Station], served[&up.Station])
	}
	if up.Station.ChargedRx != 50*sim.Millisecond {
		t.Error("ChargedRx not recorded")
	}
}

func TestActivateIdempotent(t *testing.T) {
	sc := New()
	a := newSta(sc)
	sc.Activate(&a.Station)
	sc.Activate(&a.Station)
	if sc.Next() != &a.Station {
		t.Fatal("station lost")
	}
	a.has = false
	if sc.Next() != nil {
		t.Fatal("duplicate activation left a stale entry")
	}
	if sc.Queued() {
		t.Fatal("scheduler should be empty")
	}
}

func TestZeroQuantumDefaults(t *testing.T) {
	sc := &Scheduler{SparseOpt: true}
	a := newSta(sc)
	if a.Station.Deficit() != DefaultQuantum {
		t.Fatalf("deficit = %v, want default quantum", a.Station.Deficit())
	}
}
