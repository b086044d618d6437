// Package mactid implements the paper's integrated 802.11 queueing
// structure (§3.1, Algorithms 1 and 2): the FQ-CoDel-derived design that
// replaces both the qdisc layer and the driver's per-TID FIFOs.
//
// Unlike a stock FQ-CoDel instance per TID (which would be impractical),
// one fixed, global set of flow queues is shared by every TID on the
// interface. A packet hashes to a queue; the queue is then bound to the
// packet's TID. On a hash collision with a queue already bound to another
// TID, the packet goes to the TID's dedicated overflow queue. A global
// packet limit is enforced by dropping from the globally longest queue,
// which prevents a single flow (or a slow station) from locking out the
// rest of the interface — the behaviour responsible for the aggregation
// collapse the paper describes in §4.1.2.
package mactid

import (
	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Config parameterises the shared queueing structure.
type Config struct {
	Flows    int // global number of flow queues (default 1024)
	Limit    int // global packet limit (default 8192, the paper's figure 3)
	Quantum  int // DRR quantum in bytes (default 1514)
	DropHook func(*pkt.Packet)
}

func (c *Config) fill() {
	if c.Flows <= 0 {
		c.Flows = 1024
	}
	if c.Limit <= 0 {
		c.Limit = 8192
	}
	if c.Quantum <= 0 {
		c.Quantum = 1514
	}
	if c.DropHook == nil {
		// A no-op hook keeps the drop path unconditional, so packet
		// ownership is discharged on every branch (and pktown can prove
		// it) without a nil check per drop.
		c.DropHook = func(*pkt.Packet) {}
	}
}

type listID uint8

const (
	listNone listID = iota
	listNew
	listOld
)

// queue is one flow queue, possibly bound to a TID.
type queue struct {
	q       pkt.Queue
	cv      codel.Vars
	deficit int
	tid     *TID // nil when unbound
	next    *queue
	inList  listID
	// idx is the queue's global scan position (hash queues first, then
	// overflow queues in registration order); occPos its slot in the
	// occupied heap, -1 while empty. The over-limit policy reads the heap
	// root, with idx preserving the full scan's first-longest
	// tie-breaking.
	idx    int
	occPos int
}

type queueList struct {
	head, tail *queue
}

func (l *queueList) empty() bool { return l.head == nil }

func (l *queueList) pushTail(q *queue, id listID) {
	q.next = nil
	q.inList = id
	if l.tail == nil {
		l.head = q
	} else {
		l.tail.next = q
	}
	l.tail = q
}

func (l *queueList) popHead() *queue {
	q := l.head
	if q == nil {
		return nil
	}
	l.head = q.next
	if l.head == nil {
		l.tail = nil
	}
	q.next = nil
	q.inList = listNone
	return q
}

// remove unlinks q from l (O(n); lists are short).
func (l *queueList) remove(q *queue) {
	var prev *queue
	for cur := l.head; cur != nil; cur = cur.next {
		if cur == q {
			if prev == nil {
				l.head = cur.next
			} else {
				prev.next = cur.next
			}
			if l.tail == cur {
				l.tail = prev
			}
			q.next = nil
			q.inList = listNone
			return
		}
		prev = cur
	}
}

// Fq is the interface-wide shared queueing structure. All TIDs of all
// stations on one interface share a single Fq.
type Fq struct {
	cfg   Config
	flows []queue
	// ntids counts the TIDs created; it numbers their overflow queues'
	// scan positions after the hash queues, in creation order.
	ntids int
	// occupied is a binary max-heap of the queues currently holding
	// bytes, ordered by (bytes desc, idx asc) — a total order, so the
	// root is exactly the queue a full first-longest-wins scan would
	// pick. Dense worlds keep hundreds of flows backlogged while the
	// global limit is pinned; the heap makes the per-enqueue victim
	// lookup O(log n) instead of O(n).
	occupied []*queue
	// pending is the one queue whose heap position may be stale: byte
	// changes on it are folded into a single sift at the next heap read
	// (or when a different queue changes). Aggregation drains one queue
	// many packets at a time, so deferring exactly one queue batches the
	// whole drain while every flush remains a plain op on a valid heap.
	pending *queue
	// flowMask replaces the hash modulo when Flows is a power of two
	// (the default): k % n == k & (n-1) then. Zero for other counts.
	flowMask uint64
	len      int

	drops      int
	codelDrops int
	overDrops  int
	collisions int // packets routed to an overflow queue
	sparseHits int

	// codelDrop is codelDropped as the CoDel drop callback, bound once
	// in New so Pop allocates no closure per call. popping is the TID
	// whose Pop is running, which the drop is charged to.
	codelDrop func(*pkt.Packet)
	popping   *TID
}

// New creates the shared structure.
func New(cfg Config) *Fq {
	cfg.fill()
	fq := &Fq{
		cfg:   cfg,
		flows: make([]queue, cfg.Flows),
		// Backlogged queues are few even under saturation; a small
		// starting capacity keeps steady-state occupancy tracking
		// allocation-free.
		occupied: make([]*queue, 0, 16),
	}
	if cfg.Flows&(cfg.Flows-1) == 0 {
		fq.flowMask = uint64(cfg.Flows - 1)
	}
	for i := range fq.flows {
		fq.flows[i].idx = i
		fq.flows[i].occPos = -1
	}
	fq.codelDrop = fq.codelDropped
	return fq
}

// Len reports the total packets queued across all TIDs.
func (fq *Fq) Len() int { return fq.len }

// Drops reports total packets dropped (AQM + overlimit).
func (fq *Fq) Drops() int { return fq.drops }

// CodelDrops reports packets dropped by the CoDel control law.
func (fq *Fq) CodelDrops() int { return fq.codelDrops }

// OverlimitDrops reports packets dropped by the global limit.
func (fq *Fq) OverlimitDrops() int { return fq.overDrops }

// HashCollisions reports packets diverted to TID overflow queues.
func (fq *Fq) HashCollisions() int { return fq.collisions }

// SparseDequeues reports packets served from new-queue (sparse) lists.
func (fq *Fq) SparseDequeues() int { return fq.sparseHits }

// NewTID creates a TID view onto the shared structure. The MAC creates
// one per (station, traffic identifier).
func (fq *Fq) NewTID() *TID {
	t := &TID{fq: fq}
	t.overflowQ = queue{idx: len(fq.flows) + fq.ntids, occPos: -1}
	fq.ntids++
	return t
}

// drop takes ownership of a packet leaving the structure by drop and
// hands it to the (always non-nil) DropHook for release.
//
//hj17:owns
//hj17:hotpath
func (fq *Fq) drop(p *pkt.Packet) {
	fq.drops++
	fq.cfg.DropHook(p)
}

// codelDropped takes ownership of a packet the CoDel control law dropped
// from a queue of the TID whose Pop is running.
//
//hj17:owns
//hj17:hotpath
func (fq *Fq) codelDropped(p *pkt.Packet) {
	fq.len--
	fq.popping.len--
	fq.codelDrops++
	fq.drop(p)
}

// occAbove reports whether a outranks b in the occupied heap: more
// bytes, or equal bytes at a lower scan position. idx is unique, so
// this is a strict total order and the heap root is the unique queue a
// first-longest-wins scan over every queue would pick.
func occAbove(a, b *queue) bool {
	ab, bb := a.q.Bytes(), b.q.Bytes()
	return ab > bb || (ab == bb && a.idx < b.idx)
}

//hj17:hotpath
func (fq *Fq) occSiftUp(i int) {
	h := fq.occupied
	for i > 0 {
		par := (i - 1) / 2
		if !occAbove(h[i], h[par]) {
			return
		}
		h[i], h[par] = h[par], h[i]
		h[i].occPos, h[par].occPos = i, par
		i = par
	}
}

//hj17:hotpath
func (fq *Fq) occSiftDown(i int) {
	h := fq.occupied
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && occAbove(h[r], h[child]) {
			child = r
		}
		if !occAbove(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		h[i].occPos, h[child].occPos = i, child
		i = child
	}
}

// occUpdate keeps q's membership and position in the occupied heap in
// step with its byte count. Call after any push or pop on q.q.
//
//hj17:hotpath
func (fq *Fq) occUpdate(q *queue) {
	if q.q.Bytes() > 0 {
		i := q.occPos
		if i < 0 {
			i = len(fq.occupied)
			q.occPos = i
			fq.occupied = append(fq.occupied, q)
		}
		fq.occSiftUp(i)
		fq.occSiftDown(q.occPos)
		return
	}
	if q.occPos >= 0 {
		i := q.occPos
		last := len(fq.occupied) - 1
		moved := fq.occupied[last]
		fq.occupied[i] = moved
		moved.occPos = i
		fq.occupied[last] = nil
		fq.occupied = fq.occupied[:last]
		q.occPos = -1
		if i < last {
			fq.occSiftUp(i)
			fq.occSiftDown(moved.occPos)
		}
	}
}

// occDefer records that q's byte count changed, deferring the heap
// maintenance until the next read. Only one queue may be pending, so a
// change to a different queue flushes the previous one first.
//
//hj17:hotpath
func (fq *Fq) occDefer(q *queue) {
	if fq.pending == q {
		return
	}
	if fq.pending != nil {
		fq.occUpdate(fq.pending)
	}
	fq.pending = q
}

// occFlush settles the pending queue into the heap before a read.
//
//hj17:hotpath
func (fq *Fq) occFlush() {
	if fq.pending != nil {
		fq.occUpdate(fq.pending)
		fq.pending = nil
	}
}

// longestQueue returns the queue (hash or overflow) holding the most
// bytes — the occupied heap's root. Ties resolve to the lowest scan
// position, matching a first-longest-wins scan over every queue.
//
//hj17:hotpath
func (fq *Fq) longestQueue() *queue {
	fq.occFlush()
	if len(fq.occupied) == 0 {
		return &fq.flows[0]
	}
	return fq.occupied[0]
}

// dropFromLongest implements the global-limit policy: drop the head packet
// of the globally longest queue (Algorithm 1 lines 2-4). It reports the
// dropped packet.
//
//hj17:hotpath
func (fq *Fq) dropFromLongest() *pkt.Packet {
	victim := fq.longestQueue()
	p := victim.q.Pop()
	if p == nil {
		return nil
	}
	fq.occDefer(victim)
	fq.len--
	if victim.tid != nil {
		victim.tid.len--
	}
	fq.overDrops++
	fq.drop(p)
	return p
}

// TID is the per-traffic-identifier view: the new/old scheduling lists and
// the overflow queue (Algorithm 1 line 7), held in the TID's own
// allocation. It is the MAC's per-TID queue (mac.TIDQueue) under the
// integrated substrate.
type TID struct {
	fq         *Fq
	newQ, oldQ queueList
	overflowQ  queue
	len        int
}

// Len reports packets queued for this TID.
func (t *TID) Len() int { return t.len }

// Backlogged reports whether the TID has any packet to send.
func (t *TID) Backlogged() bool { return t.len > 0 }

// Enqueue implements Algorithm 1. The packet is timestamped at now for
// CoDel, hashed to a queue (or the overflow queue on a cross-TID
// collision) and the queue activated onto the new-queues list if needed.
// It reports false if the global limit caused this very packet to drop.
//
//hj17:hotpath
func (t *TID) Enqueue(p *pkt.Packet, now sim.Time) bool {
	fq := t.fq
	accepted := true
	var q *queue
	if fq.flowMask != 0 {
		q = &fq.flows[p.FlowKey()&fq.flowMask]
	} else {
		q = &fq.flows[p.FlowKey()%uint64(len(fq.flows))]
	}
	if q.tid != nil && q.tid != t {
		q = &t.overflowQ
		fq.collisions++
	}
	q.tid = t
	p.Enqueued = now
	q.q.Push(p)
	fq.occDefer(q)
	fq.len++
	t.len++
	if q.inList == listNone {
		q.deficit = fq.cfg.Quantum
		t.newQ.pushTail(q, listNew)
	}
	for fq.len > fq.cfg.Limit {
		dp := fq.dropFromLongest()
		if dp == nil {
			break
		}
		if dp == p {
			accepted = false
		}
	}
	return accepted
}

// Pop implements Algorithm 2, pulling the next packet for this TID
// under the supplied CoDel parameters (per-station, per §3.1.1).
//
//hj17:hotpath
func (t *TID) Pop(now sim.Time, pa codel.Params) *pkt.Packet {
	fq := t.fq
	for {
		var q *queue
		fromNew := false
		if !t.newQ.empty() {
			q = t.newQ.head
			fromNew = true
		} else if !t.oldQ.empty() {
			q = t.oldQ.head
		} else {
			return nil
		}
		if q.deficit <= 0 {
			q.deficit += fq.cfg.Quantum
			if fromNew {
				t.newQ.popHead()
			} else {
				t.oldQ.popHead()
			}
			t.oldQ.pushTail(q, listOld)
			continue
		}
		fq.popping = t
		p := q.cv.Dequeue(&q.q, pa, now, fq.codelDrop)
		fq.occDefer(q)
		if p == nil {
			if fromNew {
				t.newQ.popHead()
				t.oldQ.pushTail(q, listOld)
			} else {
				t.oldQ.popHead()
				// Queue empty and leaving the scheduler: release the TID
				// binding (Algorithm 2 line 18).
				if q != &t.overflowQ {
					q.tid = nil
				}
			}
			continue
		}
		fq.len--
		t.len--
		if fromNew {
			fq.sparseHits++
		}
		q.deficit -= p.Size
		return p
	}
}

// Purge drops every packet queued for this TID (station departure).
func (t *TID) Purge() {
	for t.len > 0 {
		p := t.Pop(sim.Time(1<<62), codel.Params{Target: 1 << 62, Interval: 1 << 62})
		if p == nil {
			break
		}
		t.fq.drop(p)
	}
}
