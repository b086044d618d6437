// Package mac models the 802.11n MAC layer and the Linux WiFi transmit
// path it hosts: EDCA channel access over a shared medium, A-MPDU
// aggregation with block acknowledgement and retries, and a two-deep
// hardware queue per access category.
//
// The transmit path between Input and aggregation is pluggable: a scheme
// composes a queue substrate (TxQueueing) with an optional station
// scheduler (sched.StationScheduler), and nodes resolve their scheme
// through a registry (RegisterScheme). The five configurations the paper
// evaluates are registered at init; further schemes register themselves
// without touching this package.
package mac

import (
	"fmt"
	"strings"

	"repro/internal/airtime"
	"repro/internal/channel"
	"repro/internal/mactid"
	"repro/internal/minstrel"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/qdisc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scheme identifies one registered queue-management configuration of a
// node. The zero value is SchemeFIFO; values beyond the five paper
// schemes come from RegisterScheme.
type Scheme int

const (
	// SchemeFIFO is the unmodified stack: a PFIFO qdisc above per-TID
	// driver FIFOs sharing one buffer budget.
	SchemeFIFO Scheme = iota
	// SchemeFQCoDel replaces the qdisc with FQ-CoDel, leaving the driver
	// queues untouched.
	SchemeFQCoDel
	// SchemeFQMAC bypasses the qdisc entirely and queues in the
	// integrated per-TID FQ-CoDel structure of §3.1.
	SchemeFQMAC
	// SchemeAirtimeFQ is SchemeFQMAC plus the §3.2 airtime fairness
	// scheduler.
	SchemeAirtimeFQ
	// SchemeDTT is SchemeFQMAC plus the deficit transmission time
	// scheduler of Garroppo et al. — the closest prior work, included as
	// a comparison baseline for §3.2's accuracy claims.
	SchemeDTT
)

// String returns the scheme's registered name.
func (s Scheme) String() string {
	if info, ok := lookupScheme(s); ok {
		return info.name
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists the four configurations of the paper's §4 evaluation in
// its presentation order. The DTT baseline and anything added later are
// not part of this list; AllSchemes covers every registered scheme.
var Schemes = []Scheme{SchemeFIFO, SchemeFQCoDel, SchemeFQMAC, SchemeAirtimeFQ}

// Config parameterises a node's MAC and queueing behaviour. The zero value
// is completed with the defaults used throughout the paper's testbed.
type Config struct {
	Scheme Scheme

	// BSS tags the node with its basic-service-set index in a multi-BSS
	// world (internal/bss): the shared medium accounts channel occupancy
	// under this identity. Single-AP setups leave it 0.
	BSS int

	MaxAggrFrames int      // A-MPDU cap in MPDUs (default 32)
	MaxAggrBytes  int      // A-MPDU cap in framed bytes (default 65535)
	MaxAggrDur    sim.Time // A-MPDU cap in air time (default 4 ms, ath9k)
	MaxAMSDU      int      // A-MSDU bundle size in bytes; 0 disables two-level aggregation
	HWQueueDepth  int      // aggregates queued to hardware (default 2)
	RetryLimit    int      // MPDU retransmission limit (default 10)

	QdiscLimit int // PFIFO packet limit (default 1000)
	DriverBuf  int // shared driver buffer budget in packets (default 128)

	FQFlows int // flow queues in FQ-CoDel / FQ-MAC structures
	FQLimit int // packet limit of those structures

	AirtimeQuantum sim.Time // airtime scheduler quantum (default 300 µs)
	DisableSparse  bool     // turn off the sparse-station optimisation

	SlowRateThreshold float64  // bits/s under which CoDel relaxes (default 12 Mbps)
	CodelHysteresis   sim.Time // min time between CoDel param changes (default 2 s)

	// RTSThreshold protects transmissions longer than this with RTS/CTS
	// (adds the exchange overhead, bounds the collision cost). Zero
	// disables protection.
	RTSThreshold sim.Time

	PerMPDULoss    float64  // independent MPDU loss probability on the air
	ReorderTimeout sim.Time // block-ack reorder hole timeout (default 10 ms)
}

func (c *Config) fill() {
	if c.MaxAggrFrames <= 0 {
		c.MaxAggrFrames = 32
	}
	if c.MaxAggrBytes <= 0 {
		c.MaxAggrBytes = 65535
	}
	if c.MaxAggrDur <= 0 {
		c.MaxAggrDur = 4 * sim.Millisecond
	}
	if c.HWQueueDepth <= 0 {
		c.HWQueueDepth = 2
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 10
	}
	if c.QdiscLimit <= 0 {
		c.QdiscLimit = qdisc.DefaultPFIFOLimit
	}
	if c.DriverBuf <= 0 {
		c.DriverBuf = 128
	}
	if c.AirtimeQuantum <= 0 {
		c.AirtimeQuantum = airtime.DefaultQuantum
	}
	if c.SlowRateThreshold <= 0 {
		c.SlowRateThreshold = 12e6
	}
	if c.CodelHysteresis <= 0 {
		c.CodelHysteresis = 2 * sim.Second
	}
	if c.ReorderTimeout <= 0 {
		c.ReorderTimeout = DefaultReorderTimeout
	}
}

// Env is the shared wireless environment of one simulation: the virtual
// clock and the radio medium.
type Env struct {
	Sim    *sim.Sim
	Medium *Medium

	// tabs interns the world's PHY duration tables, one per (rate,
	// A-MPDU duration cap) pair its nodes transmit at, so thousands of
	// stations share a handful of tables. A world runs on one goroutine,
	// so the tables' FitBytes memo needs no locking; it must not be
	// shared across worlds, which run in parallel. The cap is part of
	// the key so nodes with different MaxAggrDur never thrash one memo.
	tabs map[tabKey]*phy.Tab
}

type tabKey struct {
	rate   phy.Rate
	maxDur sim.Time
}

// tab returns the world's interned duration table for rate r under the
// duration cap maxDur.
func (e *Env) tab(r phy.Rate, maxDur sim.Time) *phy.Tab {
	k := tabKey{r, maxDur}
	if t, ok := e.tabs[k]; ok {
		return t
	}
	if e.tabs == nil {
		e.tabs = make(map[tabKey]*phy.Tab)
	}
	t := phy.NewTab(r)
	e.tabs[k] = t
	return t
}

// NewEnv creates an environment on the given simulator.
func NewEnv(s *sim.Sim) *Env {
	return &Env{Sim: s, Medium: NewMedium(s)}
}

// Node is one 802.11 device: the access point or a client station.
type Node struct {
	ID   pkt.NodeID
	Name string

	env *Env
	cfg Config

	queue TxQueueing                         // the scheme's queue substrate
	sched [pkt.NumACs]sched.StationScheduler // nil for the unscheduled schemes

	// stations is allocated by the first AddStation, reorder by the
	// first reception, so nodes pay for neither until they need it.
	stations     map[pkt.NodeID]*Station
	stationOrder []*Station
	defaultPeer  *Station

	// staLow/staSlice index stations by identifier offset for the
	// per-packet route/receive lookups: one bounds check and a load
	// instead of a map probe. staSlice[i] is the station with identifier
	// staLow+i, or nil. staMin is the lowest identifier indexed since the
	// window was last empty (staLow may sit below it, as headroom). The
	// window is empty while the indexed identifiers span staSpan or more;
	// the map stays authoritative and serves those lookups.
	staLow   pkt.NodeID
	staMin   pkt.NodeID
	staSlice []*Station

	// rrIdx is each AC's round-robin position in stationOrder, for the
	// unscheduled schemes.
	rrIdx [pkt.NumACs]int

	txqs    [pkt.NumACs]txq
	reorder map[reorderKey]*reorderState

	// pool is the world's packet pool; the node releases packets it
	// terminates (drops at enqueue, retry-limit drops, purges) into it.
	pool *pkt.Pool
	// aggFree recycles Aggregate shells, and deliveredScratch is the
	// reusable buffer txComplete collects successful MPDUs into.
	aggFree          []*Aggregate
	deliveredScratch []*pkt.Packet

	// Deliver receives every packet that arrives over the air for this
	// node's upper layers. Must be set before traffic flows.
	Deliver func(*pkt.Packet)

	// Trace, when non-nil, records packet lifecycle events.
	Trace *trace.Log

	// Stats.
	RetryDrops   int // MPDUs dropped after exhausting retries
	InputPackets int64
	InputDrops   int // packets dropped at enqueue (qdisc/global limit)
}

// NewNode creates a node with the given queueing scheme and attaches it to
// the environment's medium. The scheme must be registered (the five paper
// schemes always are; see RegisterScheme).
func NewNode(env *Env, id pkt.NodeID, name string, cfg Config) (*Node, error) {
	cfg.fill()
	info, ok := lookupScheme(cfg.Scheme)
	if !ok {
		return nil, fmt.Errorf("mac: unknown scheme %v (registered: %s)",
			cfg.Scheme, strings.Join(sortedSchemeNames(), ", "))
	}
	n := &Node{ID: id, Name: name, env: env, cfg: cfg, pool: pkt.PoolOf(env.Sim)}
	for ac := range n.txqs {
		n.txqs[ac] = txq{node: n, ac: pkt.AC(ac), par: EDCA(pkt.AC(ac)), bss: cfg.BSS}
		n.txqs[ac].resetCW()
	}
	n.queue = info.comp.Queueing(n)
	if f := info.comp.Scheduler; f != nil {
		for ac := 0; ac < pkt.NumACs; ac++ {
			n.sched[ac] = f(n, pkt.AC(ac))
		}
	}
	return n, nil
}

// freePkt releases a packet the node terminated back to the world pool.
//
//hj17:owns
//hj17:hotpath
func (n *Node) freePkt(p *pkt.Packet) { n.pool.Put(p) }

// tabFor returns the world's interned duration table for rate r under
// the node's duration cap.
func (n *Node) tabFor(r phy.Rate) *phy.Tab { return n.env.tab(r, n.cfg.MaxAggrDur) }

// getAggregate pops a recycled aggregate shell or allocates a fresh one.
func (n *Node) getAggregate() *Aggregate {
	if k := len(n.aggFree); k > 0 {
		a := n.aggFree[k-1]
		n.aggFree[k-1] = nil
		n.aggFree = n.aggFree[:k-1]
		return a
	}
	return &Aggregate{}
}

// putAggregate resets a retired aggregate and returns it to the free
// list. The caller must be done with every field — the shell may be
// reused by the very next buildAggregate.
func (n *Node) putAggregate(a *Aggregate) {
	a.reset()
	n.aggFree = append(n.aggFree, a)
}

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// Scheme returns the node's queueing scheme.
func (n *Node) Scheme() Scheme { return n.cfg.Scheme }

// BSS returns the node's basic-service-set index (0 outside multi-BSS
// worlds).
func (n *Node) BSS() int { return n.cfg.BSS }

// Queueing exposes the node's queue substrate.
func (n *Node) Queueing() TxQueueing { return n.queue }

// FqStats exposes the integrated queue structure (nil unless the node's
// substrate is the integrated per-TID FQ-CoDel structure).
func (n *Node) FqStats() *mactid.Fq {
	if s, ok := n.queue.(*integratedQueueing); ok {
		return s.fq
	}
	return nil
}

// Qdisc exposes the qdisc of an access category (nil for the integrated
// substrate).
func (n *Node) Qdisc(ac pkt.AC) qdisc.Qdisc {
	if s, ok := n.queue.(*qdiscQueueing); ok {
		return s.qdiscs[ac]
	}
	return nil
}

// StationScheduler exposes the per-AC station scheduler (nil for the
// unscheduled schemes).
func (n *Node) StationScheduler(ac pkt.AC) sched.StationScheduler { return n.sched[ac] }

// AddStation registers a wireless peer reachable at the given PHY rate and
// returns its per-peer state. The first peer added becomes the default
// next hop for packets whose destination is not a direct peer (i.e. a
// client's AP).
func (n *Node) AddStation(peer *Node, rate phy.Rate) *Station {
	if _, dup := n.stations[peer.ID]; dup {
		panic(fmt.Sprintf("mac: duplicate station %v", peer.ID))
	}
	s := &Station{Peer: peer, Rate: rate, owner: n, tab: n.tabFor(rate)}
	for ac := range s.tids {
		t := &s.tids[ac]
		t.sta, t.ac = s, pkt.AC(ac)
		t.q = n.queue.NewTID(pkt.AC(ac))
		if sc := n.sched[ac]; sc != nil {
			t.schedEntry = sc.Register(t)
			t.schedEntry.User = s
		}
	}
	s.updateCodelParams(n.env.Sim.Now())
	n.indexStation(s)
	if n.stations == nil {
		n.stations = make(map[pkt.NodeID]*Station)
	}
	n.stations[peer.ID] = s
	n.stationOrder = append(n.stationOrder, s)
	if n.defaultPeer == nil {
		n.defaultPeer = s
	}
	return s
}

// Stations returns the node's peers in registration order.
func (n *Node) Stations() []*Station { return n.stationOrder }

// Station returns the peer entry for id, or nil.
func (n *Node) Station(id pkt.NodeID) *Station { return n.stations[id] }

// SetRate changes the PHY rate used with peer s (rate-control updates),
// re-evaluating the per-station CoDel parameters under hysteresis.
func (n *Node) SetRate(s *Station, rate phy.Rate) {
	s.Rate = rate
	if s.tab == nil || s.tab.R != rate {
		s.tab = n.tabFor(rate)
	}
	s.updateCodelParams(n.env.Sim.Now())
}

// SetStationWeight sets the station's relative airtime weight (0 or 1 =
// the default equal share). Weights take effect only under schemes whose
// scheduler honours them (sched.Weighted), such as Weighted-Airtime; the
// paper's schemes ignore them.
func (n *Node) SetStationWeight(s *Station, weight float64) {
	for ac := 0; ac < pkt.NumACs; ac++ {
		if ws, ok := n.sched[ac].(sched.Weighted); ok && s.tids[ac].schedEntry != nil {
			ws.SetWeight(s.tids[ac].schedEntry, weight)
		}
	}
}

// EnableAutoRate attaches a link-quality model and a Minstrel-style rate
// controller to peer s. The controller's throughput estimate also feeds
// the §3.1.1 CoDel parameter switch, as in the paper's implementation.
func (n *Node) EnableAutoRate(s *Station, ch *channel.Model, startMCS int) *minstrel.Controller {
	s.Channel = ch
	s.RC = minstrel.New(startMCS)
	n.SetRate(s, s.RC.CurrentRate())
	return s.RC
}

// RemoveStation disassociates a peer: every queued packet for it is
// purged, its scheduler state retires naturally (its TIDs report no
// backlog again, since MPDUs of an aggregate already in flight that
// fail are released rather than retried) and subsequent packets routed
// to it are dropped.
func (n *Node) RemoveStation(s *Station) {
	if n.stations[s.Peer.ID] != s {
		return
	}
	delete(n.stations, s.Peer.ID)
	s.removed = true
	if d := int(s.Peer.ID - n.staLow); d >= 0 && d < len(n.staSlice) {
		n.staSlice[d] = nil
	}
	for i, st := range n.stationOrder {
		if st == s {
			n.stationOrder = append(n.stationOrder[:i], n.stationOrder[i+1:]...)
			// Keep each AC's round-robin position on the same successor.
			for ac := range n.rrIdx {
				if n.rrIdx[ac] > i {
					n.rrIdx[ac]--
				}
				if len(n.stationOrder) > 0 {
					n.rrIdx[ac] %= len(n.stationOrder)
				} else {
					n.rrIdx[ac] = 0
				}
			}
			break
		}
	}
	if n.defaultPeer == s {
		n.defaultPeer = nil
		if len(n.stationOrder) > 0 {
			n.defaultPeer = n.stationOrder[0]
		}
	}
	// Drop everything queued for the station.
	for ac := range s.tids {
		t := &s.tids[ac]
		t.retryq.Drain(n.freePkt)
		t.q.Purge()
	}
}

// staSpan bounds the dense station index: once the indexed identifiers
// span this many values, lookups fall back to the map. Station
// identifiers cluster inside one BSS window, so only a pathological
// spread reaches it.
const staSpan = 1 << 16

// indexStation enters s into the dense lookup window in amortised O(1):
// identifiers above the window append to it, identifiers below it
// reallocate with at least the window's length as headroom, so
// ascending, descending and mixed registration orders all stay linear.
// It must run before s joins n.stations. A span of staSpan or more
// drops the window and leaves lookups to the map until the node has no
// stations again.
func (n *Node) indexStation(s *Station) {
	id := s.Peer.ID
	if len(n.stations) == 0 {
		n.staLow, n.staMin = id, id
		n.staSlice = append(n.staSlice[:0], s)
		return
	}
	if len(n.staSlice) == 0 {
		return // too sparse: the map serves lookups
	}
	top := n.staLow + pkt.NodeID(len(n.staSlice)) - 1
	lo, hi := min(n.staMin, id), max(top, id)
	if hi-lo >= staSpan {
		n.staSlice = nil
		return
	}
	for top < id {
		n.staSlice = append(n.staSlice, nil)
		top++
	}
	if id < n.staLow {
		grow := max(n.staLow-id, pkt.NodeID(len(n.staSlice)))
		base := max(n.staLow-grow, hi-(staSpan-1))
		buf := make([]*Station, hi-base+1)
		copy(buf[n.staLow-base:], n.staSlice)
		n.staLow, n.staSlice = base, buf
	}
	n.staMin = lo
	n.staSlice[id-n.staLow] = s
}

// lookupStation returns the peer entry for id, or nil. When the dense
// index exists it covers every station, so a miss there is a miss.
func (n *Node) lookupStation(id pkt.NodeID) *Station {
	if d := int(id - n.staLow); d >= 0 && d < len(n.staSlice) {
		return n.staSlice[d]
	}
	if len(n.staSlice) > 0 {
		return nil
	}
	return n.stations[id]
}

// route finds the peer entry a packet should be transmitted to: its
// destination if directly associated, otherwise the default peer (the AP).
func (n *Node) route(p *pkt.Packet) *Station {
	if s := n.lookupStation(p.Dst); s != nil {
		return s
	}
	return n.defaultPeer
}

// Input accepts a packet from the node's upper layers (for the AP: from
// the wired port; for a client: from its local applications) and enqueues
// it for wireless transmission.
func (n *Node) Input(p *pkt.Packet) {
	n.InputPackets++
	sta := n.route(p)
	if sta == nil {
		n.InputDrops++
		n.trace(trace.Drop, p.Dst, p.AC, p.Size, "no-route")
		n.freePkt(p)
		return
	}
	n.trace(trace.Enqueue, p.Dst, p.AC, p.Size, "")
	ac := p.AC
	p.TID = int(ac)
	tid := &sta.tids[ac]
	now := n.env.Sim.Now()

	n.queue.Enqueue(tid.q, p, now)
	if sc := n.sched[ac]; sc != nil {
		sc.Activate(tid.schedEntry)
	}
	n.schedule(ac)
}

// schedule fills the access category's hardware queue with aggregates and
// requests channel access when anything is pending. This is the schedule()
// entry point of Algorithm 3, also used (with round-robin TID selection)
// by the baseline schemes.
func (n *Node) schedule(ac pkt.AC) {
	q := &n.txqs[ac]
	for len(q.hwq) < n.cfg.HWQueueDepth {
		agg := n.nextAggregate(ac)
		if agg == nil {
			break
		}
		q.hwq = append(q.hwq, agg)
	}
	if len(q.hwq) > 0 {
		n.env.Medium.request(q)
	}
}

// nextAggregate picks the TID to serve — via the scheme's station
// scheduler or round-robin — and builds one aggregate from it.
func (n *Node) nextAggregate(ac pkt.AC) *Aggregate {
	if sc := n.sched[ac]; sc != nil {
		for {
			e := sc.Next()
			if e == nil {
				return nil
			}
			sta, ok := e.User.(*Station)
			if !ok {
				panic(fmt.Sprintf("mac: scheme %v scheduler returned an entry with no station owner; "+
					"StationScheduler.Next must return entries obtained from Register", n.cfg.Scheme))
			}
			if agg := n.buildAggregate(&sta.tids[ac]); agg != nil {
				return agg
			}
		}
	}
	n.queue.Refill(ac)
	lst := n.stationOrder
	for i := 0; i < len(lst); i++ {
		idx := (n.rrIdx[ac] + i) % len(lst)
		t := &lst[idx].tids[ac]
		if !t.Backlogged() {
			continue
		}
		n.rrIdx[ac] = (idx + 1) % len(lst)
		if agg := n.buildAggregate(t); agg != nil {
			return agg
		}
	}
	return nil
}

// txComplete finishes one air transmission of agg: per-MPDU success is
// resolved (all fail on a collision), airtime is accounted and charged,
// failures are handled, and the hardware queue is refilled.
//
// A fully failed aggregate (collision: no block ack) is retried in place
// at the head of the hardware queue, as ath9k does — this keeps MPDU order
// intact. Individually lost MPDUs go to the TID retry queue and rejoin the
// next aggregate; the receiver's block-ack reorder buffer restores their
// order.
func (n *Node) txComplete(q *txq, agg *Aggregate, collided bool, occupied sim.Time) {
	if len(q.hwq) == 0 || q.hwq[0] != agg {
		panic("mac: txComplete out of order")
	}
	sta := agg.TID.sta
	sta.TxAirtime += occupied
	sta.AggCount++
	sta.AggPackets += int64(len(agg.Pkts))
	if n.Trace != nil {
		note := "ok"
		if collided {
			note = "collision"
		}
		n.trace(trace.TxDone, sta.Peer.ID, q.ac, len(agg.Pkts), note)
	}
	if sc := n.sched[q.ac]; sc != nil {
		sc.ChargeTx(agg.TID.schedEntry, occupied, n.env.Sim.Now()-agg.Built)
	}

	if collided {
		q.bumpCW()
		dropped := false
		keep := agg.Pkts[:0]
		for _, p := range agg.Pkts {
			p.Retries++
			if p.Retries > n.cfg.RetryLimit {
				n.RetryDrops++
				sta.DropPackets++
				dropped = true
				n.freePkt(p)
				continue
			}
			keep = append(keep, p)
		}
		for i := len(keep); i < len(agg.Pkts); i++ {
			agg.Pkts[i] = nil
		}
		agg.Pkts = keep
		if len(agg.Pkts) > 0 {
			// Retry in place, staying at the head of the hardware queue.
			// Only if the retry limit removed packets does the frame need
			// recomputing (conservatively, as singleton MPDUs).
			if dropped {
				agg.FrameBytes = 0
				agg.groupEnd = agg.groupEnd[:0]
				for i, p := range agg.Pkts {
					agg.FrameBytes += mpduLen(p.Size, agg.Rate)
					agg.groupEnd = append(agg.groupEnd, i+1)
				}
				agg.DataDur = phy.DataDurBytes(agg.FrameBytes, agg.Rate)
				agg.TotalDur = agg.DataDur + phy.AckDur(agg.Rate)
			}
			n.schedule(q.ac)
			return
		}
		q.popHW()
		n.putAggregate(agg)
		n.schedule(q.ac)
		return
	}

	q.popHW()
	// Per-MPDU success: the flat configured loss probability plus, when a
	// channel model is attached, rate-dependent link errors. With A-MSDU
	// bundling, an MPDU (group) succeeds or fails as a unit.
	succProb := 1 - n.cfg.PerMPDULoss
	if sta.Channel != nil {
		succProb *= sta.Channel.SuccessProb(agg.Rate)
	}
	if succProb >= 1 {
		// Lossless grant: every MPDU is delivered, so the per-group
		// draw loop collapses to one pass — one stats flush and a
		// zero-copy handoff of the aggregate's own packet slice. The
		// shell is recycled only after delivery returns, so nothing
		// downstream can reuse it mid-flight.
		var bytes int64
		for _, p := range agg.Pkts {
			p.SentAir = agg.Started
			bytes += int64(p.Size)
		}
		sta.TxBytes += bytes
		sta.TxPackets += int64(len(agg.Pkts))
		q.resetCW()
		if rc := sta.RC; rc != nil {
			rc.Report(agg.Rate, len(agg.Pkts), 0)
			if rc.MaybeUpdate(n.env.Sim.Now()) {
				n.SetRate(sta, rc.CurrentRate())
			}
		}
		tid, totalDur := agg.TID, agg.TotalDur
		if sc := n.sched[q.ac]; sc != nil && tid.Backlogged() {
			sc.Activate(tid.schedEntry)
		}
		if len(agg.Pkts) > 0 {
			sta.Peer.receiveAggregate(n, q.ac, agg.Pkts, totalDur)
		}
		n.putAggregate(agg)
		n.schedule(q.ac)
		return
	}

	rng := n.env.Sim.Rand()
	delivered := n.deliveredScratch[:0]
	anyFailed := false
	for gi := 0; gi < agg.NumGroups(); gi++ {
		group := agg.Group(gi)
		ok := succProb >= 1 || rng.Float64() < succProb
		if ok {
			for _, p := range group {
				p.SentAir = agg.Started
				sta.TxBytes += int64(p.Size)
				sta.TxPackets++
				delivered = append(delivered, p)
			}
			continue
		}
		anyFailed = true
		for _, p := range group {
			p.Retries++
			if p.Retries > n.cfg.RetryLimit {
				n.RetryDrops++
				sta.DropPackets++
				n.freePkt(p)
				continue
			}
			if sta.removed {
				n.freePkt(p)
				continue
			}
			agg.TID.retryq.Push(p)
		}
	}
	n.deliveredScratch = delivered // keep grown capacity for next time
	if anyFailed {
		q.bumpCW()
	} else {
		q.resetCW()
	}
	if rc := sta.RC; rc != nil {
		rc.Report(agg.Rate, len(delivered), len(agg.Pkts)-len(delivered))
		if rc.MaybeUpdate(n.env.Sim.Now()) {
			n.SetRate(sta, rc.CurrentRate())
		}
	}
	tid, totalDur := agg.TID, agg.TotalDur
	n.putAggregate(agg)
	if sc := n.sched[q.ac]; sc != nil && tid.Backlogged() {
		sc.Activate(tid.schedEntry)
	}

	if len(delivered) > 0 {
		sta.Peer.receiveAggregate(n, q.ac, delivered, totalDur)
	}
	n.schedule(q.ac)
}

// receiveAggregate handles an aggregate arriving over the air: received
// airtime is attributed (and, under the airtime scheme, charged) to the
// sending peer, and packets are handed to the upper layers.
func (n *Node) receiveAggregate(from *Node, ac pkt.AC, pkts []*pkt.Packet, dur sim.Time) {
	if sta := n.lookupStation(from.ID); sta != nil {
		sta.RxAirtime += dur
		if sc := n.sched[ac]; sc != nil {
			sc.ChargeRx(sta.tids[ac].schedEntry, dur)
		}
	}
	if n.Deliver == nil {
		panic(fmt.Sprintf("mac: node %s has no Deliver hook", n.Name))
	}
	if n.Trace != nil {
		for _, p := range pkts {
			n.trace(trace.Deliver, from.ID, ac, p.Size, "")
		}
	}
	n.reorderDeliver(reorderKey{src: from.ID, tid: int(ac)}, pkts)
}

// trace records an event when tracing is attached.
func (n *Node) trace(kind trace.Kind, peer pkt.NodeID, ac pkt.AC, size int, note string) {
	if n.Trace == nil {
		return
	}
	n.Trace.Add(trace.Event{
		At: n.env.Sim.Now(), Kind: kind, Node: n.ID, Peer: peer,
		AC: ac, Size: size, Note: note,
	})
}

// QueuedPackets reports every packet queued at the node for transmission
// (queue substrate + retry queues + hardware queues), for tests.
func (n *Node) QueuedPackets() int {
	total := 0
	for ac := 0; ac < pkt.NumACs; ac++ {
		total += n.queue.UpperLen(pkt.AC(ac))
		for _, s := range n.stationOrder {
			total += s.tids[ac].queuedPackets()
		}
		for _, agg := range n.txqs[ac].hwq {
			total += len(agg.Pkts)
		}
	}
	return total
}
