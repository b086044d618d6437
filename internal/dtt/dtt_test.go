package dtt

import (
	"testing"

	"repro/internal/sim"
)

type sta struct {
	e   *Entry
	has bool
}

func (st *sta) Backlogged() bool { return st.has }

func add(s *Scheduler) *sta {
	st := &sta{has: true}
	st.e = &Entry{Backlog: st}
	s.Activate(st.e)
	return st
}

func TestSingleStation(t *testing.T) {
	s := New()
	a := add(s)
	if s.Next() != a.e {
		t.Fatal("single station not scheduled")
	}
	a.has = false
	if s.Next() != nil {
		t.Fatal("idle station scheduled")
	}
	if s.Queued() {
		t.Fatal("rotation should be empty")
	}
}

func TestReplenishWhenBroke(t *testing.T) {
	s := &Scheduler{Quantum: 100 * sim.Microsecond}
	a := add(s)
	s.Charge(a.e, 500*sim.Microsecond) // deep in debt
	e := s.Next()
	if e != a.e {
		t.Fatal("station not rescheduled after replenish")
	}
	if a.e.Credit() <= 0 {
		t.Fatalf("credit %v after replenish rounds, want > 0", a.e.Credit())
	}
	if a.e.Rounds == 0 {
		t.Fatal("rounds not counted")
	}
}

func TestEqualChargingFairness(t *testing.T) {
	s := New()
	durs := []sim.Time{500 * sim.Microsecond, 2 * sim.Millisecond, 4 * sim.Millisecond}
	stas := []*sta{add(s), add(s), add(s)}
	total := make([]sim.Time, 3)
	for i := 0; i < 20000; i++ {
		e := s.Next()
		if e == nil {
			t.Fatal("nothing scheduled")
		}
		for j, st := range stas {
			if st.e == e {
				s.Charge(e, durs[j])
				total[j] += durs[j]
			}
		}
	}
	sum := total[0] + total[1] + total[2]
	for i, tt := range total {
		share := float64(tt) / float64(sum)
		if share < 0.30 || share > 0.37 {
			t.Errorf("station %d charged-time share %.3f, want ~1/3", i, share)
		}
	}
}

func TestActivateIdempotent(t *testing.T) {
	s := New()
	a := add(s)
	s.Activate(a.e)
	s.Activate(a.e)
	if s.count() != 1 {
		t.Fatalf("rotation length %d, want 1", s.count())
	}
}

func TestRotationSkipsIdle(t *testing.T) {
	s := New()
	a := add(s)
	b := add(s)
	a.has = false
	if got := s.Next(); got != b.e {
		t.Fatal("idle station not skipped")
	}
	// a left the rotation; reactivating brings it back.
	a.has = true
	s.Activate(a.e)
	s.Charge(b.e, 10*sim.Millisecond)
	if got := s.Next(); got != a.e {
		t.Fatal("reactivated station not scheduled while b is broke")
	}
}
