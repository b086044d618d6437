// Package airtime implements the paper's deficit-based airtime fairness
// scheduler (§3.2, Algorithm 3).
//
// The scheduler is modelled on FQ-CoDel's deficit round-robin, with
// stations taking the place of flows and the deficit accounted in
// microseconds of airtime instead of bytes. The MAC charges every
// transmitted and received frame's duration against the owning station's
// deficit; the scheduler decides which station builds the next aggregate.
//
// It includes the sparse-station optimisation (advantage 3 in §3.2): a
// station that was completely idle enters the new-stations list and gets
// priority for one scheduling round, with the same anti-gaming rule as
// FQ-CoDel's sparse-flow mechanism (on emptying it moves to the old list,
// so it cannot bounce between idle and priority).
package airtime

import "repro/internal/sim"

// DefaultQuantum is the airtime replenished per round. It matches the
// granularity used by the ath9k implementation; fairness is independent of
// the exact value, which only trades scheduling granularity for overhead.
const DefaultQuantum = 300 * sim.Microsecond

type listID uint8

const (
	listNone listID = iota
	listNew
	listOld
)

// Station is the scheduler's per-station, per-access-category state. The
// MAC embeds one Station per (station, AC) pair and supplies Backlog.
type Station struct {
	// Backlog reports whether the station has packets queued on this
	// access category. Set once at registration.
	Backlog interface{ Backlogged() bool }

	// Owner is opaque registrar data the scheduler never reads. The sched
	// adapter keeps the station's Entry here, so a pick maps back to its
	// entry without a lookup.
	Owner any

	// Weight scales the deficit replenished per round: a station with
	// weight 2 earns twice the airtime share of a weight-1 station. Zero
	// means the default weight of 1 (the paper's equal-share policy).
	Weight float64

	deficit sim.Time
	next    *Station
	inList  listID

	// stats
	ChargedTx sim.Time // cumulative airtime charged for transmissions
	ChargedRx sim.Time // cumulative airtime charged for receptions
	Rounds    int      // times the station received a fresh quantum
	SparseTx  int      // times scheduled from the new list
}

// Deficit exposes the current deficit (for tests and tracing).
func (s *Station) Deficit() sim.Time { return s.deficit }

// replenish scales the per-round quantum by the station's weight.
func (s *Station) replenish(q sim.Time) sim.Time {
	if s.Weight <= 0 || s.Weight == 1 {
		return q
	}
	return sim.Time(float64(q) * s.Weight)
}

type stationList struct {
	head, tail *Station
}

func (l *stationList) empty() bool { return l.head == nil }

func (l *stationList) pushTail(s *Station, id listID) {
	s.next = nil
	s.inList = id
	if l.tail == nil {
		l.head = s
	} else {
		l.tail.next = s
	}
	l.tail = s
}

func (l *stationList) popHead() *Station {
	s := l.head
	if s == nil {
		return nil
	}
	l.head = s.next
	if l.head == nil {
		l.tail = nil
	}
	s.next = nil
	s.inList = listNone
	return s
}

// Scheduler is one airtime-fair scheduler instance; the MAC keeps one per
// hardware queue (access category).
type Scheduler struct {
	// Quantum is the airtime deficit replenished per round.
	Quantum sim.Time
	// SparseOpt enables the sparse-station optimisation. The paper's
	// Figure 8 compares enabled vs disabled.
	SparseOpt bool

	newL, oldL stationList
}

// New returns a scheduler with the default quantum and the sparse-station
// optimisation enabled.
func New() *Scheduler {
	return &Scheduler{Quantum: DefaultQuantum, SparseOpt: true}
}

// Activate notifies the scheduler that st has become backlogged. Idempotent
// for stations already scheduled. New stations enter the new-stations list
// when the sparse optimisation is on, the old list otherwise.
//
//hj17:hotpath
func (sc *Scheduler) Activate(st *Station) {
	if st.inList != listNone {
		return
	}
	st.deficit = st.replenish(sc.quantum())
	if sc.SparseOpt {
		sc.newL.pushTail(st, listNew)
	} else {
		sc.oldL.pushTail(st, listOld)
	}
}

func (sc *Scheduler) quantum() sim.Time {
	if sc.Quantum > 0 {
		return sc.Quantum
	}
	return DefaultQuantum
}

// Next picks the station that should build the next aggregate, applying
// Algorithm 3's deficit and list rotation rules. It returns nil when no
// backlogged station remains. The chosen station stays at the head of its
// list; it continues to be returned until its deficit is exhausted by
// Charge or its queue empties.
//
//hj17:hotpath
func (sc *Scheduler) Next() *Station {
	for {
		var st *Station
		fromNew := false
		switch {
		case !sc.newL.empty():
			st = sc.newL.head
			fromNew = true
		case !sc.oldL.empty():
			st = sc.oldL.head
		default:
			return nil
		}
		if st.deficit <= 0 {
			st.deficit += st.replenish(sc.quantum())
			st.Rounds++
			if fromNew {
				sc.newL.popHead()
			} else {
				sc.oldL.popHead()
			}
			sc.oldL.pushTail(st, listOld)
			continue
		}
		if !st.Backlog.Backlogged() {
			if fromNew {
				// Anti-gaming rule: an emptying sparse station moves to
				// the old list rather than leaving the scheduler, so it
				// cannot re-enter the priority list immediately.
				sc.newL.popHead()
				sc.oldL.pushTail(st, listOld)
			} else {
				sc.oldL.popHead()
			}
			continue
		}
		if fromNew {
			st.SparseTx++
		}
		return st
	}
}

// ChargeTx subtracts transmitted airtime from st's deficit.
//
//hj17:hotpath
func (sc *Scheduler) ChargeTx(st *Station, d sim.Time) {
	st.deficit -= d
	st.ChargedTx += d
}

// ChargeRx subtracts received airtime from st's deficit. Accounting
// received frames lets the scheduler partially compensate for upstream
// traffic it cannot directly control (§4.1.2).
//
//hj17:hotpath
func (sc *Scheduler) ChargeRx(st *Station, d sim.Time) {
	st.deficit -= d
	st.ChargedRx += d
}

// Queued reports whether any station is scheduled (for tests).
func (sc *Scheduler) Queued() bool {
	return !sc.newL.empty() || !sc.oldL.empty()
}
