package mac

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sched"
	"repro/internal/sim"
)

// watchedScheduler fails the test if its scheduler ever picks a station
// the node no longer has.
type watchedScheduler struct {
	sched.StationScheduler
	t     *testing.T
	node  *Node
	picks int
}

func (w *watchedScheduler) Next() *sched.Entry {
	e := w.StationScheduler.Next()
	if e != nil {
		w.picks++
		if sta := e.User.(*Station); w.node.Station(sta.Peer.ID) != sta {
			w.t.Errorf("%v: scheduler picked removed station %v", w.node.Scheme(), sta.Peer.ID)
		}
	}
	return e
}

// TestSchedulerChurn: stations leave and join an AP under a lossy
// channel while downlink traffic flows, so departures catch aggregates
// in flight and MPDUs awaiting retransmission. The scheduler must never
// pick a departed station, and once traffic stops every packet must be
// back in the world's pool.
func TestSchedulerChurn(t *testing.T) {
	for _, scheme := range []Scheme{SchemeAirtimeFQ, SchemeDTT} {
		s := sim.New(7)
		env := NewEnv(s)
		pool := pkt.PoolOf(s)
		ap := mustNode(t, env, 1, "ap", Config{Scheme: scheme, PerMPDULoss: 0.2})
		ap.Deliver = pool.Put
		watchers := make([]*watchedScheduler, pkt.NumACs)
		for ac := range ap.sched {
			watchers[ac] = &watchedScheduler{StationScheduler: ap.sched[ac], t: t, node: ap}
			ap.sched[ac] = watchers[ac]
		}
		rates := []phy.Rate{phy.MCS(15, true), phy.MCS(0, true), phy.MCS(7, true)}
		nextID := pkt.NodeID(10)
		join := func() {
			sta := mustNode(t, env, nextID, "sta", Config{Scheme: SchemeFIFO})
			sta.Deliver = pool.Put
			rate := rates[int(nextID)%len(rates)]
			ap.AddStation(sta, rate)
			sta.AddStation(ap, rate)
			nextID++
		}
		for i := 0; i < 6; i++ {
			join()
		}

		r := sim.NewRand(3)
		send := func() {
			stas := ap.Stations()
			if len(stas) == 0 {
				return
			}
			p := pool.Get()
			p.Size, p.Proto, p.Src, p.AC = 1500, pkt.ProtoUDP, 1, pkt.ACBE
			p.Dst = stas[r.Intn(len(stas))].Peer.ID
			p.Flow = uint64(p.Dst)
			ap.Input(p)
		}
		stopTraffic := s.Ticker(200*sim.Microsecond, send)
		stopChurn := s.Ticker(20*sim.Millisecond, func() {
			stas := ap.Stations()
			ap.RemoveStation(stas[r.Intn(len(stas))])
			join()
		})
		s.RunUntil(2 * sim.Second)
		stopChurn()
		stopTraffic()
		s.RunUntil(4 * sim.Second)

		if got := len(ap.Stations()); got != 6 {
			t.Errorf("%v: %d stations after churn, want 6", scheme, got)
		}
		picks := 0
		for _, w := range watchers {
			picks += w.picks
		}
		if picks == 0 {
			t.Errorf("%v: scheduler never picked a station", scheme)
		}
		if q := ap.QueuedPackets(); q != 0 {
			t.Errorf("%v: %d packets still queued after drain", scheme, q)
		}
		if live := pool.Stats().Live(); live != 0 {
			t.Errorf("%v: %d packets never returned to the pool", scheme, live)
		}
	}
}
