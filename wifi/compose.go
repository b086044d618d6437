package wifi

import (
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The transmit path is pluggable: a scheme is a registered composition
// of a queue substrate (TxQueueing) and an optional station scheduler
// (StationScheduler). The five paper schemes plus the Airtime-RR and
// Weighted-Airtime extensions are pre-registered; new schemes register
// here and are immediately resolvable by name everywhere — campaign
// scenarios, the CLIs and Testbed configs.
//
//	myScheme := wifi.RegisterScheme("MyScheme", wifi.Composition{
//	    Desc:      "integrated queueing + my scheduler",
//	    Queueing:  wifi.NewIntegratedQueueing,
//	    Scheduler: func(n *wifi.Node, _ wifi.AC) wifi.StationScheduler {
//	        return wifi.NewRoundRobinScheduler()
//	    },
//	})
//	tb := wifi.NewTestbed(wifi.TestbedConfig{Scheme: myScheme, ...})

// Composition types, re-exported from the MAC model.
type (
	// Composition describes one scheme: queue substrate + optional
	// station scheduler.
	Composition = mac.Composition
	// TxQueueing is the queue substrate between input and aggregation.
	TxQueueing = mac.TxQueueing
	// TIDQueue is the per-(station, TID) face of a substrate.
	TIDQueue = mac.TIDQueue
	// StationScheduler decides which station builds the next aggregate.
	StationScheduler = sched.StationScheduler
	// SchedEntry is one station's handle within a StationScheduler.
	SchedEntry = sched.Entry
	// SchedBacklog is the backlog source a StationScheduler's Register
	// receives for each station.
	SchedBacklog = sched.Backlog
	// Node is one 802.11 device of the underlying MAC model.
	Node = mac.Node
	// AC is an 802.11e access category.
	AC = pkt.AC
)

// RegisterScheme adds a named transmit-path composition and returns its
// Scheme value; see mac.RegisterScheme.
func RegisterScheme(name string, comp Composition) Scheme {
	return mac.RegisterScheme(name, comp)
}

// SchemeByName resolves a registered scheme name (case-insensitive).
func SchemeByName(name string) (Scheme, bool) { return mac.SchemeByName(name) }

// AllSchemes lists every registered scheme in registration order — the
// five paper configurations first, then registered extensions.
func AllSchemes() []Scheme { return mac.AllSchemes() }

// SchemeNames lists every registered scheme name in registration order.
func SchemeNames() []string { return mac.SchemeNames() }

// Queue substrates available to compositions.
var (
	// NewFIFOQueueing is the unmodified stack: PFIFO qdisc over
	// unmanaged per-TID driver FIFOs.
	NewFIFOQueueing = mac.NewFIFOQueueing
	// NewFQCoDelQueueing swaps the qdisc for FQ-CoDel.
	NewFQCoDelQueueing = mac.NewFQCoDelQueueing
	// NewIntegratedQueueing is the paper's §3.1 integrated per-TID
	// FQ-CoDel structure.
	NewIntegratedQueueing = mac.NewIntegratedQueueing
)

// NewAirtimeScheduler returns the paper's §3.2 deficit airtime scheduler
// (quantum 0 = default 300 µs).
func NewAirtimeScheduler(quantum Time, sparseOpt bool) StationScheduler {
	return sched.NewAirtime(sim.Time(quantum), sparseOpt)
}

// NewWeightedAirtimeScheduler is the airtime scheduler with the
// per-station weight knob enabled.
func NewWeightedAirtimeScheduler(quantum Time, sparseOpt bool) StationScheduler {
	return sched.NewWeightedAirtime(sim.Time(quantum), sparseOpt)
}

// NewDTTScheduler returns the deficit transmission time comparison
// baseline of Garroppo et al.
func NewDTTScheduler(quantum Time) StationScheduler {
	return sched.NewDTT(sim.Time(quantum))
}

// NewRoundRobinScheduler returns the strict round-robin baseline.
func NewRoundRobinScheduler() StationScheduler { return sched.NewRoundRobin() }
