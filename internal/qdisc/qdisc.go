// Package qdisc models the Linux queueing-discipline layer that sits above
// the WiFi driver (the top box of the paper's Figure 2). Two disciplines
// are provided: PFIFO (the kernel default) and, via package fqcodel, the
// FQ-CoDel qdisc used as the paper's second baseline.
//
// In the paper's FQ-MAC and Airtime-FQ configurations this layer is
// bypassed entirely; the MAC model then feeds packets straight into the
// integrated per-TID structure (package mactid).
package qdisc

import "repro/internal/pkt"

// Qdisc is a queueing discipline instance for one network interface.
type Qdisc interface {
	// Enqueue accepts a packet, returning false when the packet was
	// dropped (queue overlimit).
	Enqueue(p *pkt.Packet) bool
	// Dequeue returns the next packet to hand to the driver, or nil when
	// the discipline is empty.
	Dequeue() *pkt.Packet
	// Len reports the number of packets held.
	Len() int
	// Drops reports the cumulative packets dropped.
	Drops() int
}

// PFIFO is the default Linux packet-FIFO discipline: a single tail-drop
// queue with a packet-count limit.
type PFIFO struct {
	q     pkt.Queue
	limit int
	drops int
}

// DefaultPFIFOLimit is the Linux default txqueuelen.
const DefaultPFIFOLimit = 1000

// NewPFIFO returns a PFIFO with the given packet limit (DefaultPFIFOLimit
// if limit <= 0).
func NewPFIFO(limit int) *PFIFO {
	f := new(PFIFO)
	f.SetLimit(limit)
	return f
}

// SetLimit sets the packet limit (DefaultPFIFOLimit if limit <= 0). It
// initialises a PFIFO held by value, as NewPFIFO does a fresh one.
func (f *PFIFO) SetLimit(limit int) {
	if limit <= 0 {
		limit = DefaultPFIFOLimit
	}
	f.limit = limit
}

// Enqueue implements Qdisc.
//
//hj17:hotpath
func (f *PFIFO) Enqueue(p *pkt.Packet) bool {
	if f.q.Len() >= f.limit {
		f.drops++
		return false
	}
	f.q.Push(p)
	return true
}

// Dequeue implements Qdisc.
//
//hj17:hotpath
func (f *PFIFO) Dequeue() *pkt.Packet { return f.q.Pop() }

// Len implements Qdisc.
func (f *PFIFO) Len() int { return f.q.Len() }

// Drops implements Qdisc.
func (f *PFIFO) Drops() int { return f.drops }

// None is a pass-through discipline with no queueing at all, used when the
// MAC-internal queueing structure replaces the qdisc layer. Enqueue always
// fails, signalling the caller to deliver the packet directly to the MAC.
type None struct{}

// Enqueue implements Qdisc; it never accepts packets.
func (None) Enqueue(*pkt.Packet) bool { return false }

// Dequeue implements Qdisc.
func (None) Dequeue() *pkt.Packet { return nil }

// Len implements Qdisc.
func (None) Len() int { return 0 }

// Drops implements Qdisc.
func (None) Drops() int { return 0 }
