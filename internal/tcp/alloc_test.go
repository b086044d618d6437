package tcp

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// quietLink is a one-way link that allocates nothing once warm: a
// serialising bottleneck with a fixed propagation delay that delivers
// through Sim.AtCall and releases every packet to the world's pool once
// the endpoint has consumed it. Every dropEvery-th data segment is lost
// (0 = none), so SACK recovery runs in steady state too.
type quietLink struct {
	s         *sim.Sim
	pool      *pkt.Pool
	dst       *Endpoint
	perByte   sim.Time
	delay     sim.Time
	busyUntil sim.Time
	dropEvery int
	data      int
	deliver   func(any) // built once, shared by every delivery event
}

func newQuietLink(s *sim.Sim, dst *Endpoint, perByte, delay sim.Time, dropEvery int) *quietLink {
	l := &quietLink{s: s, pool: pkt.PoolOf(s), dst: dst, perByte: perByte, delay: delay, dropEvery: dropEvery}
	l.deliver = func(a any) {
		p := a.(*pkt.Packet)
		l.dst.Input(p)
		l.pool.Put(p)
	}
	return l
}

func (l *quietLink) send(p *pkt.Packet) {
	if p.Size > HeaderLen {
		l.data++
		if l.dropEvery > 0 && l.data%l.dropEvery == 0 {
			l.pool.Put(p)
			return
		}
	}
	start := max(l.s.Now(), l.busyUntil)
	l.busyUntil = start + sim.Time(p.Size)*l.perByte
	l.s.AtCall(l.busyUntil+l.delay, l.deliver, p)
}

// TestSteadyStateSegmentsAllocateNothing: once a bulk download is warm,
// sending a segment, receiving it, acknowledging it (delayed or with
// SACK blocks), re-arming the RTO and recovering from loss allocate
// nothing. Every per-segment allocation multiplies by the tens of
// millions of segments a paper campaign simulates.
func TestSteadyStateSegmentsAllocateNothing(t *testing.T) {
	s := sim.New(1)
	a := &Host{Sim: s, ID: 1}
	b := &Host{Sim: s, ID: 2}
	c := NewConn(Options{Client: a, Server: b, Flow: 1, RcvWnd: 256 << 10})
	// 100 Mbit/s each way, 4 ms RTT; one data segment in 499 is lost.
	data := newQuietLink(s, c.Server(), 80*sim.Nanosecond, 2*sim.Millisecond, 499)
	acks := newQuietLink(s, c.Client(), 80*sim.Nanosecond, 2*sim.Millisecond, 0)
	a.Out, b.Out = data.send, acks.send
	c.OpenInstant()
	c.Client().SendForever()
	// Warm up: packet and header free lists, the event free list and
	// queue, and the SACK scoreboards' backing arrays reach their peak.
	s.RunUntil(5 * sim.Second)

	cli := c.Client()
	segs, rtx := cli.SentSegs, cli.Retransmits
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { s.RunUntil(s.Now() + 50*sim.Millisecond) })
	segs, rtx = cli.SentSegs-segs, cli.Retransmits-rtx
	perRun := float64(segs) / (runs + 1) // AllocsPerRun adds one warm-up call
	if perRun < 100 || rtx == 0 {
		t.Fatalf("workload too light to measure: %.0f segments per run, %d retransmissions", perRun, rtx)
	}
	if allocs != 0 {
		t.Fatalf("steady-state bulk download allocates %.0f times per %.0f segments (%.3f per segment)",
			allocs, perRun, allocs/perRun)
	}
}
