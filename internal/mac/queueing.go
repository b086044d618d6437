package mac

import (
	"repro/internal/codel"
	"repro/internal/fqcodel"
	"repro/internal/mactid"
	"repro/internal/pkt"
	"repro/internal/qdisc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TIDQueue is the per-(station, TID) face of a TxQueueing substrate: the
// queue the MAC pops packets from when it builds an aggregate for that
// station's traffic identifier.
type TIDQueue interface {
	// Backlogged reports whether the queue holds packets.
	Backlogged() bool
	// Len reports the packets held.
	Len() int
	// Pop removes the next packet under the station's CoDel parameters
	// (substrates without AQM ignore them), or returns nil.
	Pop(now sim.Time, pa codel.Params) *pkt.Packet
	// Purge drops everything held (station removal).
	Purge()
}

// TxQueueing is the queue substrate of a node's transmit path — the
// layer between Input and aggregation where packets wait. The three
// substrates model the paper's configurations: a qdisc (PFIFO or
// FQ-CoDel) above unmanaged per-TID driver FIFOs sharing one buffer
// budget (Figure 2), and the integrated per-TID FQ-CoDel structure of
// §3.1 that replaces both layers. Schemes compose a substrate with an
// optional station scheduler via RegisterScheme.
type TxQueueing interface {
	// NewTID allocates the queue state for a new (station, access
	// category) pair.
	NewTID(ac pkt.AC) TIDQueue
	// Enqueue accepts a packet routed to the given TID queue. Drops are
	// accounted on the owning node (Node.DropInput).
	Enqueue(q TIDQueue, p *pkt.Packet, now sim.Time)
	// Refill tops up the per-TID queues from any upper queue the
	// substrate keeps: the qdisc substrates pull packets into the driver
	// FIFOs while the shared buffer budget allows, the integrated
	// substrate has nothing above its TID queues.
	Refill(ac pkt.AC)
	// UpperLen reports packets held above the per-TID queues (the qdisc
	// backlog; zero for the integrated substrate).
	UpperLen(ac pkt.AC) int
}

// DropInput records packets the queue substrate dropped at input: count
// is added to InputDrops and one drop trace event of the given size is
// emitted. Exposed for TxQueueing implementations.
func (n *Node) DropInput(dst pkt.NodeID, ac pkt.AC, size int, note string, count int) {
	n.InputDrops += count
	n.trace(trace.Drop, dst, ac, size, note)
}

// --- Qdisc-over-driver-FIFOs substrate -----------------------------------

// qdiscQueueing models the stock transmit path of Figure 2: a qdisc per
// access category feeding per-TID driver FIFOs that share one buffer
// budget. The unmanaged lower-layer queueing is what defeats qdisc-level
// AQM in the paper's baseline measurements.
type qdiscQueueing struct {
	n         *Node
	qdiscs    [pkt.NumACs]qdisc.Qdisc
	driverLen int  // packets held in driver buf_q across all TIDs
	hooked    bool // the qdiscs release dropped packets themselves
	refilling bool // guards the cross-AC refill against recursion

	// pfifos backs qdiscs under the PFIFO substrate, and firstTIDs are
	// the driver FIFOs of the first TID created per AC. A client node
	// has exactly one peer, so its whole transmit path is this one
	// allocation; later peers' FIFOs are allocated by NewTID.
	pfifos    [pkt.NumACs]qdisc.PFIFO
	firstTIDs [pkt.NumACs]fifoTIDQueue
}

// NewFIFOQueueing returns the unmodified-stack substrate: a PFIFO qdisc
// above the driver FIFOs.
func NewFIFOQueueing(n *Node) TxQueueing {
	s := &qdiscQueueing{n: n}
	for ac := range s.qdiscs {
		s.pfifos[ac].SetLimit(n.cfg.QdiscLimit)
		s.qdiscs[ac] = &s.pfifos[ac]
	}
	return s
}

// NewFQCoDelQueueing returns the second baseline: an FQ-CoDel qdisc
// above the (still unmanaged) driver FIFOs. Packets the discipline drops
// (CoDel or overlimit) are released through its drop hook.
func NewFQCoDelQueueing(n *Node) TxQueueing {
	s := &qdiscQueueing{n: n, hooked: true}
	for ac := range s.qdiscs {
		s.qdiscs[ac] = fqcodel.New(fqcodel.Config{
			Flows: n.cfg.FQFlows, Limit: n.cfg.FQLimit,
			Clock:    n.env.Sim.Now,
			DropHook: n.freePkt,
		})
	}
	return s
}

// fifoTIDQueue is one TID's driver FIFO (buf_q of Figure 2).
type fifoTIDQueue struct {
	s    *qdiscQueueing
	bufq pkt.Queue
}

func (s *qdiscQueueing) NewTID(ac pkt.AC) TIDQueue {
	if q := &s.firstTIDs[ac]; q.s == nil {
		q.s = s
		return q
	}
	return &fifoTIDQueue{s: s}
}

//hj17:hotpath
func (s *qdiscQueueing) Enqueue(_ TIDQueue, p *pkt.Packet, _ sim.Time) {
	ac, dst, size := p.AC, p.Dst, p.Size
	if !s.qdiscs[ac].Enqueue(p) {
		s.n.DropInput(dst, ac, size, "qdisc-full", 1)
		if !s.hooked {
			// PFIFO rejects without storing; the hooked disciplines
			// release rejected packets through their drop hook.
			s.n.freePkt(p)
		}
	}
	s.Refill(ac)
}

// refillAC drains one AC's qdisc into the driver FIFOs while the shared
// driver buffer has room, reporting the packets pulled.
//
//hj17:hotpath
func (s *qdiscQueueing) refillAC(ac pkt.AC) int {
	q := s.qdiscs[ac]
	if q == nil {
		return 0
	}
	pulled := 0
	for s.driverLen < s.n.cfg.DriverBuf {
		p := q.Dequeue()
		if p == nil {
			break
		}
		sta := s.n.route(p)
		if sta == nil {
			s.n.freePkt(p)
			continue
		}
		sta.tids[ac].q.(*fifoTIDQueue).bufq.Push(p)
		s.driverLen++
		pulled++
	}
	return pulled
}

// Refill drains the requested AC's qdisc into the per-TID driver queues
// while the shared driver buffer has room, then opportunistically tops
// up the other access categories — the driver pulls from every qdisc
// whenever buffer space frees, so a backlogged AC must not strand in its
// qdisc just because its own traffic went quiet. An AC that gains
// packets this way is kicked so its hardware queue fills. (For runs with
// a single active AC the cross-AC pass finds every other qdisc empty and
// is a no-op.)
func (s *qdiscQueueing) Refill(ac pkt.AC) {
	s.refillAC(ac)
	if s.refilling {
		return
	}
	s.refilling = true
	for o := 0; o < pkt.NumACs; o++ {
		if pkt.AC(o) == ac {
			continue
		}
		if s.refillAC(pkt.AC(o)) > 0 {
			s.n.schedule(pkt.AC(o))
		}
	}
	s.refilling = false
}

func (s *qdiscQueueing) UpperLen(ac pkt.AC) int { return s.qdiscs[ac].Len() }

func (q *fifoTIDQueue) Backlogged() bool { return !q.bufq.Empty() }

func (q *fifoTIDQueue) Len() int { return q.bufq.Len() }

func (q *fifoTIDQueue) Pop(sim.Time, codel.Params) *pkt.Packet {
	p := q.bufq.Pop()
	if p != nil {
		q.s.driverLen--
	}
	return p
}

func (q *fifoTIDQueue) Purge() {
	q.s.driverLen -= q.bufq.Len()
	q.bufq.Drain(q.s.n.freePkt)
}

// --- Integrated per-TID FQ-CoDel substrate -------------------------------

// integratedQueueing is the paper's §3.1 structure: the qdisc layer is
// bypassed and every TID queues in one shared mactid.Fq.
type integratedQueueing struct {
	n  *Node
	fq *mactid.Fq
}

// NewIntegratedQueueing returns the integrated per-TID FQ-CoDel
// substrate of §3.1. Dropped packets are released through the
// structure's drop hook. Its TID queues are the structure's own
// mactid.TID views.
func NewIntegratedQueueing(n *Node) TxQueueing {
	return &integratedQueueing{
		n: n,
		fq: mactid.New(mactid.Config{
			Flows: n.cfg.FQFlows, Limit: n.cfg.FQLimit,
			DropHook: n.freePkt,
		}),
	}
}

func (s *integratedQueueing) NewTID(pkt.AC) TIDQueue { return s.fq.NewTID() }

//hj17:hotpath
func (s *integratedQueueing) Enqueue(q TIDQueue, p *pkt.Packet, now sim.Time) {
	dst, ac := p.Dst, p.AC // p may be dropped (and released) below
	before := s.fq.Drops()
	q.(*mactid.TID).Enqueue(p, now)
	if d := s.fq.Drops() - before; d > 0 {
		s.n.DropInput(dst, ac, d, "fq-overlimit", d)
	}
}

func (s *integratedQueueing) Refill(pkt.AC) {}

func (s *integratedQueueing) UpperLen(pkt.AC) int { return 0 }
