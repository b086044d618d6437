package mac

import (
	"repro/internal/channel"
	"repro/internal/codel"
	"repro/internal/minstrel"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Station is a node's view of one wireless peer: for the access point, one
// per associated client; for a client, the single entry describing the AP.
// It carries the per-TID queues, the airtime-scheduler entries, the
// per-station CoDel parameters (§3.1.1) and the per-station statistics the
// evaluation reports.
type Station struct {
	Peer *Node    // the remote node
	Rate phy.Rate // PHY rate used for frames to/from this peer

	// Channel, when set, models the link quality: per-MPDU success
	// depends on the chosen rate. RC, when set, adapts Rate with a
	// Minstrel-style controller (see Node.EnableAutoRate).
	Channel *channel.Model
	RC      *minstrel.Controller

	owner *Node
	// removed is set by RemoveStation; see there.
	removed bool
	// tids holds the per-AC transmit state by value: one allocation per
	// station instead of one per (station, AC) pair.
	tids [pkt.NumACs]tidState

	// tab caches the duration constants of Rate (phy.Tab); kept in sync
	// by AddStation/SetRate so the aggregation hot path reads tables
	// instead of dividing by the bitrate.
	tab *phy.Tab

	codelPa      codel.Params
	codelSlow    bool
	codelInit    bool
	lastPaChange sim.Time

	// Stats, maintained by the owner node.
	TxAirtime   sim.Time // airtime of transmissions to this peer (incl. retries)
	RxAirtime   sim.Time // airtime of transmissions received from this peer
	TxBytes     int64    // L3 bytes successfully delivered to this peer
	TxPackets   int64
	DropPackets int64 // MPDUs that exhausted their retry limit
	AggCount    int64 // aggregates transmitted
	AggPackets  int64 // MPDUs across those aggregates
}

// Airtime returns the total airtime attributed to the peer (TX + RX), the
// quantity Figures 5, 6 and 9 are computed over.
func (s *Station) Airtime() sim.Time { return s.TxAirtime + s.RxAirtime }

// MeanAggregation returns the mean A-MPDU size in packets, the "Aggr size"
// column of Table 1.
func (s *Station) MeanAggregation() float64 {
	if s.AggCount == 0 {
		return 0
	}
	return float64(s.AggPackets) / float64(s.AggCount)
}

// CodelParams returns the CoDel parameters currently applied to this
// station's queues.
func (s *Station) CodelParams() codel.Params { return s.codelPa }

// updateCodelParams implements §3.1.1: switch to the 50 ms/300 ms
// parameters when the station's expected throughput drops below the
// threshold, with hysteresis so the values change at most once per period.
func (s *Station) updateCodelParams(now sim.Time) {
	cfg := &s.owner.cfg
	// Expected station throughput, from the rate-control information: the
	// controller's estimate when rate control runs, otherwise the
	// effective rate at a typical aggregation level for this PHY rate.
	var expect float64
	if s.RC != nil {
		expect = s.RC.ExpectedThroughput()
	} else {
		expect = s.tab.EffectiveRate1500(expectedAggr(s.tab, cfg))
	}
	slow := expect < cfg.SlowRateThreshold
	if s.codelInit {
		if slow == s.codelSlow {
			return
		}
		if now-s.lastPaChange < cfg.CodelHysteresis {
			return
		}
	}
	s.codelInit = true
	s.codelSlow = slow
	s.lastPaChange = now
	if slow {
		s.codelPa = codel.Slow()
	} else {
		s.codelPa = codel.Default()
	}
}

// expectedAggr estimates the aggregation level rate control would reach at
// the tab's rate under the configured caps.
func expectedAggr(tab *phy.Tab, cfg *Config) int {
	if tab.R.Legacy {
		return 1
	}
	n := 1
	for n < cfg.MaxAggrFrames {
		if tab.DataDur1500(n+1) > cfg.MaxAggrDur {
			break
		}
		n++
	}
	return n
}

// tidState is the per-(station, TID) transmit state at a node. One TID per
// access category is modelled (packets map to TIDs by their DiffServ-derived
// AC, as in the paper).
type tidState struct {
	sta *Station
	ac  pkt.AC

	// q is the TID's queue within the scheme's substrate: a driver FIFO
	// under the qdisc substrates (buf_q of Figure 2), a TID view of the
	// shared structure under the integrated substrate.
	q TIDQueue

	// schedEntry is the TID's handle in the scheme's station scheduler
	// (nil for the unscheduled schemes).
	schedEntry *sched.Entry

	// All modes: MPDUs awaiting retransmission (retry_q of Figure 2).
	retryq pkt.Queue

	// txSeq numbers MPDUs for the receiver's block-ack reorder buffer.
	// Sequence numbers are assigned at first aggregation (§3.1: encodings
	// sensitive to reordering are applied on dequeue).
	txSeq int
}

// Backlogged reports whether the TID can contribute packets to an
// aggregate right now. It is the TID's backlog source for the station
// scheduler (sched.Backlog).
func (t *tidState) Backlogged() bool {
	return !t.retryq.Empty() || t.q.Backlogged()
}

// queuedPackets reports the number of packets queued on this TID
// (excluding the substrate's upper queues and other TIDs).
func (t *tidState) queuedPackets() int {
	return t.retryq.Len() + t.q.Len()
}

// pop removes the next packet for aggregation, consulting the retry queue
// first, then the TID's substrate queue.
func (t *tidState) pop(now sim.Time) *pkt.Packet {
	if p := t.retryq.Pop(); p != nil {
		return p
	}
	return t.q.Pop(now, t.sta.codelPa)
}

// Aggregate is one built A-MPDU (or single MPDU for VO/legacy) awaiting
// transmission in a hardware queue. When two-level (A-MSDU within A-MPDU)
// aggregation is enabled, each MPDU may bundle several packets; the group
// boundaries record the bundling, and loss applies per MPDU (per group).
//
// Aggregates are recycled through a per-node free list (Node.getAggregate
// / Node.putAggregate) and keep their slice capacity across reuses, so
// steady-state aggregation allocates nothing. Group boundaries are end
// offsets into Pkts rather than sub-slices for the same reason.
type Aggregate struct {
	Pkts       []*pkt.Packet
	groupEnd   []int // group i is Pkts[groupEnd[i-1]:groupEnd[i]]
	TID        *tidState
	FrameBytes int      // framed body length (sum of MPDU lengths)
	DataDur    sim.Time // Tphy + body air time
	TotalDur   sim.Time // DataDur + SIFS + block ack
	Rate       phy.Rate
	UseRTS     bool     // protected by an RTS/CTS exchange
	Built      sim.Time // when the aggregate was submitted to hardware
	Started    sim.Time // when its (last) air transmission began
}

// NumGroups reports the number of MPDUs (A-MSDU groups) in the frame.
func (a *Aggregate) NumGroups() int { return len(a.groupEnd) }

// Group returns the packets of MPDU i.
func (a *Aggregate) Group(i int) []*pkt.Packet {
	start := 0
	if i > 0 {
		start = a.groupEnd[i-1]
	}
	return a.Pkts[start:a.groupEnd[i]]
}

// reset clears the aggregate for reuse, retaining slice capacity.
func (a *Aggregate) reset() {
	for i := range a.Pkts {
		a.Pkts[i] = nil
	}
	*a = Aggregate{Pkts: a.Pkts[:0], groupEnd: a.groupEnd[:0]}
}

// CollisionCost is the channel time a failed transmission of this
// aggregate occupies: the whole frame normally, only the RTS exchange
// when protected.
func (a *Aggregate) CollisionCost() sim.Time {
	if a.UseRTS {
		return phy.RTSDur
	}
	return a.TotalDur
}

// buildAggregate pulls packets from t into a new aggregate, respecting the
// frame-count, byte and air-duration caps. It returns nil if the TID had
// nothing to send. The 4 ms duration cap is what limits a 6.5 Mbps station
// to two-frame aggregates, matching Table 1's measured 1.89 mean.
//
// With Config.MaxAMSDU > 0, two-level aggregation (A-MSDU inside A-MPDU,
// the mechanism of the paper's reference [16]) bundles consecutive small
// packets into shared MPDUs before A-MPDU framing.
func (n *Node) buildAggregate(t *tidState) *Aggregate {
	now := n.env.Sim.Now()
	cfg := &n.cfg
	rate := t.sta.Rate
	if t.sta.RC != nil {
		rate = t.sta.RC.PickRate(n.env.Sim.Rand())
	}
	tab := t.sta.tab
	if tab == nil || tab.R != rate {
		tab = n.tabFor(rate)
	}
	maxFrames := cfg.MaxAggrFrames
	noAggr := EDCA(t.ac).NoAggr || rate.Legacy
	if noAggr {
		maxFrames = 1
	}
	// The duration cap as a byte threshold: newBytes > maxBytes is the
	// same decision as DataDurBytes(newBytes, rate) > MaxAggrDur, by
	// monotonicity of the duration in the byte count (phy.Tab.FitBytes).
	maxBytes := cfg.MaxAggrBytes
	if fb := tab.FitBytes(cfg.MaxAggrDur); fb < maxBytes {
		maxBytes = fb
	}

	agg := n.getAggregate()
	agg.TID, agg.Rate, agg.Built = t, rate, now
	for agg.NumGroups() < maxFrames {
		start := len(agg.Pkts)
		glen := n.buildMPDU(t, agg, rate, noAggr, now)
		if len(agg.Pkts) == start {
			break
		}
		newBytes := agg.FrameBytes + glen
		if agg.NumGroups() > 0 {
			if newBytes > maxBytes {
				// Does not fit: return the group for the next aggregate.
				for i := len(agg.Pkts) - 1; i >= start; i-- {
					t.retryq.PushFront(agg.Pkts[i])
					agg.Pkts[i] = nil
				}
				agg.Pkts = agg.Pkts[:start]
				break
			}
		}
		for _, p := range agg.Pkts[start:] {
			if p.MacSeq == 0 {
				t.txSeq++
				p.MacSeq = t.txSeq
			}
		}
		agg.groupEnd = append(agg.groupEnd, len(agg.Pkts))
		agg.FrameBytes = newBytes
		// Under the qdisc substrates the driver refills its buffer as it
		// drains, preserving the shared-space dynamics of Figure 2; the
		// integrated substrate has nothing to refill.
		n.queue.Refill(t.ac)
	}
	if len(agg.Pkts) == 0 {
		n.putAggregate(agg)
		return nil
	}
	agg.DataDur = phy.DataDurBytes(agg.FrameBytes, rate)
	agg.TotalDur = agg.DataDur + tab.Ack
	if thr := cfg.RTSThreshold; thr > 0 && agg.TotalDur > thr {
		agg.UseRTS = true
		agg.TotalDur += phy.RTSCTSOverhead
	}
	return agg
}

// amsduSubframe is the per-packet A-MSDU subframe header (DA/SA/length).
const amsduSubframe = 14

// buildMPDU assembles the next MPDU directly into agg.Pkts (without
// recording a group boundary — the caller does that once the MPDU is
// known to fit): a single packet normally, or an A-MSDU bundle of
// consecutive packets up to Config.MaxAMSDU bytes when two-level
// aggregation is on. Returns the framed MPDU length (0 when the TID had
// nothing to send).
func (n *Node) buildMPDU(t *tidState, agg *Aggregate, rate phy.Rate, noAggr bool, now sim.Time) int {
	p := t.pop(now)
	if p == nil {
		return 0
	}
	agg.Pkts = append(agg.Pkts, p)
	maxAMSDU := n.cfg.MaxAMSDU
	if noAggr || maxAMSDU <= 0 {
		return mpduLen(p.Size, rate)
	}
	bundled := 1
	body := pad4(amsduSubframe + p.Size)
	for {
		q := t.peekNext()
		if q == nil {
			break
		}
		add := pad4(amsduSubframe + q.Size)
		if body+add > maxAMSDU {
			break
		}
		t.pop(now)
		agg.Pkts = append(agg.Pkts, q)
		bundled++
		body += add
	}
	if bundled == 1 {
		return mpduLen(p.Size, rate)
	}
	return mpduLen(body, rate)
}

// peekNext returns the TID's next packet without committing to it, or nil.
// Only the retry queue can be peeked cheaply; for the main queues we pop
// and push back to the retry queue head, which preserves order.
func (t *tidState) peekNext() *pkt.Packet {
	if p := t.retryq.Peek(); p != nil {
		return p
	}
	p := t.pop(t.sta.owner.env.Sim.Now())
	if p == nil {
		return nil
	}
	t.retryq.PushFront(p)
	return p
}

func pad4(n int) int {
	if rem := n % 4; rem != 0 {
		n += 4 - rem
	}
	return n
}

// mpduLen returns the framed length of one MPDU body at the given rate.
func mpduLen(size int, r phy.Rate) int {
	if r.Legacy {
		return size + phy.LMac + phy.LFCS
	}
	return phy.MPDULen(size)
}
