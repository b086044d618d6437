// Package sched defines the station-scheduler side of the pluggable
// transmit path: the StationScheduler interface the MAC drives when it
// decides which station builds the next aggregate, and the three
// implementations the repository ships — the paper's deficit airtime
// scheduler (§3.2), the DTT comparison baseline (Garroppo et al.) and a
// trivial round-robin baseline that isolates how much of the paper's
// gains come from deficit accounting versus mere per-station scheduling.
//
// The MAC registers one Entry per (station, access category) pair and
// talks to the scheduler exclusively through entries; schedulers keep
// their own per-entry state behind the opaque impl field. New scheduler
// policies plug into the MAC by composing a scheme via mac.RegisterScheme
// — no MAC changes required.
package sched

import "repro/internal/sim"

// Backlog is the registrar's backlog source for one entry: the MAC
// registers its per-(station, access category) TID state, which reports
// whether it can contribute packets to an aggregate right now.
type Backlog interface {
	Backlogged() bool
}

// Entry is one station's handle within a StationScheduler. The registrar
// (the MAC) supplies the backlog source at Register time and may attach
// its own station object to User to map scheduling decisions back.
// Schedulers allocate an Entry together with their per-entry state, so a
// registration is one heap object.
type Entry struct {
	// User is opaque registrar data; the MAC stores its *mac.Station
	// here so Next results translate back to stations.
	User any

	// impl is the scheduler-private per-entry state.
	impl any
}

// StationScheduler schedules the stations of one access category: the
// MAC asks Next which station may build the next aggregate and reports
// completed transmissions back through the Charge methods.
type StationScheduler interface {
	// Register adds a station with its backlog source and returns its
	// scheduling handle. Called once per station when it associates.
	Register(src Backlog) *Entry

	// Activate notifies that the entry has become backlogged. Idempotent
	// for entries already scheduled.
	Activate(*Entry)

	// Next picks the entry that should build the next aggregate, or nil
	// when no backlogged entry remains.
	Next() *Entry

	// ChargeTx accounts a completed transmission. air is the time the
	// frame actually occupied the medium; wall is the time from aggregate
	// submission to completion, including queueing and contention — the
	// quantity DTT (inaccurately, per the paper's §3.2) bills.
	ChargeTx(e *Entry, air, wall sim.Time)

	// ChargeRx accounts a received transmission's airtime.
	ChargeRx(e *Entry, air sim.Time)
}

// Weighted is implemented by schedulers that honour per-station share
// weights (the policy knob the ath9k airtime scheduler exposes). A weight
// of 0 means the default weight of 1.
type Weighted interface {
	SetWeight(e *Entry, weight float64)
}
