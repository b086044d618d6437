// Package fqcodel implements the FQ-CoDel queueing discipline (RFC 8290):
// a deficit round-robin scheduler over hashed flow queues, each managed by
// CoDel, with the new-flow (sparse flow) optimisation and a global limit
// that drops from the longest queue.
//
// This is the qdisc-layer baseline ("FQ-CoDel" in the paper's evaluation).
// The MAC-integrated variant, which shares a fixed queue set across TIDs,
// lives in package mactid.
package fqcodel

import (
	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Config holds FQ-CoDel parameters.
type Config struct {
	Flows    int          // number of hash queues (default 1024)
	Limit    int          // global packet limit (default 10240)
	Quantum  int          // DRR quantum in bytes (default 1514)
	Codel    codel.Params // per-queue AQM parameters
	Clock    func() sim.Time
	DropHook func(*pkt.Packet) // invoked for every dropped packet (may be nil)
}

func (c *Config) fill() {
	if c.Flows <= 0 {
		c.Flows = 1024
	}
	if c.Limit <= 0 {
		c.Limit = 10240
	}
	if c.Quantum <= 0 {
		c.Quantum = 1514
	}
	if c.Codel == (codel.Params{}) {
		c.Codel = codel.Default()
	}
	if c.Clock == nil {
		panic("fqcodel: Config.Clock is required")
	}
	if c.DropHook == nil {
		// A no-op hook keeps the drop path unconditional, so packet
		// ownership is discharged on every branch (and pktown can prove
		// it) without a nil check per drop.
		c.DropHook = func(*pkt.Packet) {}
	}
}

type flow struct {
	q       pkt.Queue
	cv      codel.Vars
	deficit int
	// list linkage
	next   *flow
	inList listID
	// idx is the flow's position in FQCoDel.flows; occPos its position
	// in the occupied list, -1 while the queue is empty. Together they
	// let the over-limit drop policy scan only backlogged flows while
	// preserving the exact first-longest tie-breaking of a full scan.
	idx    int
	occPos int
}

type listID uint8

const (
	listNone listID = iota
	listNew
	listOld
)

// flowList is an intrusive FIFO of flows.
type flowList struct {
	head, tail *flow
	n          int
}

func (l *flowList) empty() bool { return l.head == nil }

func (l *flowList) pushTail(f *flow, id listID) {
	f.next = nil
	f.inList = id
	if l.tail == nil {
		l.head = f
	} else {
		l.tail.next = f
	}
	l.tail = f
	l.n++
}

func (l *flowList) popHead() *flow {
	f := l.head
	if f == nil {
		return nil
	}
	l.head = f.next
	if l.head == nil {
		l.tail = nil
	}
	f.next = nil
	f.inList = listNone
	l.n--
	return f
}

// FQCoDel is an instance of the discipline. Create with New.
type FQCoDel struct {
	cfg Config
	// flows is the hash table, built on first use (table): an AP holds
	// one instance per access category, and most cells only ever send
	// on one of them.
	flows    []flow
	occupied []*flow // flows currently holding bytes, in no particular order
	// occBytes mirrors each occupied flow's byte count in a flat array,
	// so the over-limit victim scan walks contiguous ints instead of
	// dereferencing every flow's queue.
	occBytes []int
	// flowMask replaces the hash modulo when Flows is a power of two
	// (the default): k % n == k & (n-1) then. Zero for other counts.
	flowMask uint64
	newQ     flowList
	oldQ     flowList
	len      int
	drops    int
	// codelDrop is the CoDel drop callback, built once at construction
	// so Dequeue does not allocate a closure per call.
	codelDrop func(*pkt.Packet)

	// stats
	codelDrops int
	overDrops  int
	sparseHits int // packets dequeued from the new list
}

// New creates an FQ-CoDel instance.
func New(cfg Config) *FQCoDel {
	cfg.fill()
	fq := &FQCoDel{
		cfg: cfg,
		// Backlogged flows are few even under saturation; a small
		// starting capacity keeps steady-state occupancy tracking
		// allocation-free.
		occupied: make([]*flow, 0, 16),
		occBytes: make([]int, 0, 16),
	}
	if cfg.Flows&(cfg.Flows-1) == 0 {
		fq.flowMask = uint64(cfg.Flows - 1)
	}
	fq.codelDrop = func(dp *pkt.Packet) {
		fq.len--
		fq.codelDrops++
		fq.drop(dp)
	}
	return fq
}

// table returns the flow table, building it on first use.
func (fq *FQCoDel) table() []flow {
	if fq.flows == nil {
		fq.flows = make([]flow, fq.cfg.Flows)
		for i := range fq.flows {
			fq.flows[i].idx = i
			fq.flows[i].occPos = -1
		}
	}
	return fq.flows
}

// Len implements qdisc.Qdisc.
func (fq *FQCoDel) Len() int { return fq.len }

// Drops implements qdisc.Qdisc.
func (fq *FQCoDel) Drops() int { return fq.drops }

// CodelDrops reports packets dropped by the AQM control law.
func (fq *FQCoDel) CodelDrops() int { return fq.codelDrops }

// OverlimitDrops reports packets dropped by the global limit.
func (fq *FQCoDel) OverlimitDrops() int { return fq.overDrops }

// SparseDequeues reports packets served from the new-flow (sparse) list.
func (fq *FQCoDel) SparseDequeues() int { return fq.sparseHits }

// drop takes ownership of a packet leaving the discipline by drop and
// hands it to the (always non-nil) DropHook for release.
//
//hj17:owns
//hj17:hotpath
func (fq *FQCoDel) drop(p *pkt.Packet) {
	fq.drops++
	fq.cfg.DropHook(p)
}

// occUpdate keeps f's membership in the occupied list in step with its
// queue: flows enter when they gain their first byte and leave when they
// drain. Call after any push or pop on f.q.
//
//hj17:hotpath
func (fq *FQCoDel) occUpdate(f *flow) {
	if b := f.q.Bytes(); b > 0 {
		if f.occPos < 0 {
			f.occPos = len(fq.occupied)
			fq.occupied = append(fq.occupied, f)
			fq.occBytes = append(fq.occBytes, b)
		} else {
			fq.occBytes[f.occPos] = b
		}
		return
	}
	if f.occPos >= 0 {
		last := len(fq.occupied) - 1
		moved := fq.occupied[last]
		fq.occupied[f.occPos] = moved
		fq.occBytes[f.occPos] = fq.occBytes[last]
		moved.occPos = f.occPos
		fq.occupied[last] = nil
		fq.occupied = fq.occupied[:last]
		fq.occBytes = fq.occBytes[:last]
		f.occPos = -1
	}
}

// longestFlow returns the flow with the most queued bytes. Only the
// occupied list is scanned; ties resolve to the lowest flow index, which
// is exactly what a first-longest-wins scan over all flows would pick.
//
//hj17:hotpath
func (fq *FQCoDel) longestFlow() *flow {
	if len(fq.occupied) == 0 {
		return &fq.table()[0]
	}
	li, lb := 0, fq.occBytes[0]
	for i, b := range fq.occBytes[1:] {
		if b > lb || (b == lb && fq.occupied[i+1].idx < fq.occupied[li].idx) {
			li, lb = i+1, b
		}
	}
	return fq.occupied[li]
}

// Enqueue implements qdisc.Qdisc.
//
//hj17:hotpath
func (fq *FQCoDel) Enqueue(p *pkt.Packet) bool {
	flows := fq.table()
	var f *flow
	if fq.flowMask != 0 {
		f = &flows[p.FlowKey()&fq.flowMask]
	} else {
		f = &flows[p.FlowKey()%uint64(len(flows))]
	}
	p.Enqueued = fq.cfg.Clock()
	f.q.Push(p)
	fq.occUpdate(f)
	fq.len++
	if f.inList == listNone {
		f.deficit = fq.cfg.Quantum
		fq.newQ.pushTail(f, listNew)
	}
	accepted := true
	for fq.len > fq.cfg.Limit {
		victim := fq.longestFlow()
		dp := victim.q.Pop()
		if dp == nil {
			break
		}
		fq.occUpdate(victim)
		fq.len--
		if dp == p {
			accepted = false
		}
		fq.overDrops++
		fq.drop(dp)
	}
	return accepted
}

// Dequeue implements qdisc.Qdisc, applying the RFC 8290 scheduling loop.
//
//hj17:hotpath
func (fq *FQCoDel) Dequeue() *pkt.Packet {
	now := fq.cfg.Clock()
	for {
		var f *flow
		fromNew := false
		if !fq.newQ.empty() {
			f = fq.newQ.head
			fromNew = true
		} else if !fq.oldQ.empty() {
			f = fq.oldQ.head
		} else {
			return nil
		}
		if f.deficit <= 0 {
			f.deficit += fq.cfg.Quantum
			if fromNew {
				fq.newQ.popHead()
			} else {
				fq.oldQ.popHead()
			}
			fq.oldQ.pushTail(f, listOld)
			continue
		}
		p := f.cv.Dequeue(&f.q, fq.cfg.Codel, now, fq.codelDrop)
		fq.occUpdate(f)
		if p == nil {
			if fromNew {
				// Move to the old list so a queue emptying under its
				// quantum cannot immediately re-claim sparse priority
				// (RFC 8290 §5.4.2 anti-gaming rule).
				fq.newQ.popHead()
				fq.oldQ.pushTail(f, listOld)
			} else {
				fq.oldQ.popHead()
			}
			continue
		}
		fq.len--
		if fromNew {
			fq.sparseHits++
		}
		f.deficit -= p.Size
		return p
	}
}
