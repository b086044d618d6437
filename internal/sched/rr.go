package sched

import "repro/internal/sim"

// RoundRobin is the trivial per-station scheduler baseline: backlogged
// stations take strict turns building one aggregate each, with no
// airtime accounting at all. Compared against the deficit scheduler it
// isolates how much of the paper's §5 fairness gain comes from deficit
// accounting versus mere per-station scheduling — round-robin equalises
// transmission opportunities, so slow stations still consume far more
// than an equal airtime share.
type RoundRobin struct {
	head, tail *rrEntry
}

// rrEntry is one registration: the handle and the rotation state in a
// single allocation.
type rrEntry struct {
	Entry
	src    Backlog
	active bool
	next   *rrEntry

	// Turns counts scheduling grants (for tests and tracing).
	Turns int
}

// NewRoundRobin returns the round-robin baseline scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

func (r *RoundRobin) get(e *Entry) *rrEntry { return e.impl.(*rrEntry) }

// Register implements StationScheduler.
func (r *RoundRobin) Register(src Backlog) *Entry {
	re := &rrEntry{src: src}
	re.impl = re
	return &re.Entry
}

// Activate implements StationScheduler.
func (r *RoundRobin) Activate(e *Entry) {
	re := r.get(e)
	if re.active {
		return
	}
	re.active = true
	r.pushTail(re)
}

func (r *RoundRobin) pushTail(re *rrEntry) {
	re.next = nil
	if r.tail == nil {
		r.head = re
	} else {
		r.tail.next = re
	}
	r.tail = re
}

func (r *RoundRobin) popHead() *rrEntry {
	re := r.head
	if re == nil {
		return nil
	}
	r.head = re.next
	if r.head == nil {
		r.tail = nil
	}
	re.next = nil
	return re
}

// Next implements StationScheduler: the first backlogged station in the
// rotation gets one turn and moves to the tail. Stations whose backlog
// has drained leave the rotation (they re-enter via Activate).
func (r *RoundRobin) Next() *Entry {
	for {
		re := r.head
		if re == nil {
			return nil
		}
		if !re.src.Backlogged() {
			r.popHead()
			re.active = false
			continue
		}
		r.popHead()
		r.pushTail(re)
		re.Turns++
		return &re.Entry
	}
}

// ChargeTx implements StationScheduler; round-robin keeps no accounts.
func (r *RoundRobin) ChargeTx(*Entry, sim.Time, sim.Time) {}

// ChargeRx implements StationScheduler; round-robin keeps no accounts.
func (r *RoundRobin) ChargeRx(*Entry, sim.Time) {}

// Queued reports whether any entry is in rotation (for tests).
func (r *RoundRobin) Queued() bool { return r.head != nil }
