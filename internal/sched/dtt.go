package sched

import (
	"repro/internal/dtt"
	"repro/internal/sim"
)

// DTT adapts the Deficit Transmission Time scheduler of Garroppo et al.
// to the StationScheduler interface. Faithful to the original proposal,
// it charges the wall-clock time from frame submission to completion —
// which includes time spent waiting for other stations, the inaccuracy
// the paper's §3.2 calls out — and does not account received airtime.
type DTT struct {
	inner *dtt.Scheduler
}

// dttEntry is one registration: the handle and the scheduler's token
// state in a single allocation. The inner entry's Owner points back at
// the handle, so Next needs no lookup.
type dttEntry struct {
	Entry
	de dtt.Entry
}

// NewDTT returns the DTT comparison baseline with the given quantum
// (0 = default).
func NewDTT(quantum sim.Time) *DTT {
	return &DTT{inner: &dtt.Scheduler{Quantum: quantum}}
}

// Inner exposes the wrapped scheduler (for tests and tracing).
func (d *DTT) Inner() *dtt.Scheduler { return d.inner }

func (d *DTT) entry(e *Entry) *dtt.Entry { return e.impl.(*dtt.Entry) }

// Register implements StationScheduler.
func (d *DTT) Register(src Backlog) *Entry {
	de := &dttEntry{de: dtt.Entry{Backlog: src}}
	de.impl = &de.de
	de.de.Owner = &de.Entry
	return &de.Entry
}

// Activate implements StationScheduler.
func (d *DTT) Activate(e *Entry) { d.inner.Activate(d.entry(e)) }

// Next implements StationScheduler.
func (d *DTT) Next() *Entry {
	inner := d.inner.Next()
	if inner == nil {
		return nil
	}
	return inner.Owner.(*Entry)
}

// ChargeTx implements StationScheduler; DTT bills the wall-clock
// transmission time, not the true airtime.
func (d *DTT) ChargeTx(e *Entry, _, wall sim.Time) {
	d.inner.Charge(d.entry(e), wall)
}

// ChargeRx implements StationScheduler; DTT only accounts transmissions
// it schedules.
func (d *DTT) ChargeRx(*Entry, sim.Time) {}
