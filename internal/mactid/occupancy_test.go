package mactid

import (
	"testing"

	"repro/internal/codel"
	"repro/internal/sim"
)

// refLongestQueue is the original O(flows+overflow) reference: first
// strictly longest hash queue in index order, then overflow queues, a
// later queue winning only on strictly more bytes. tids lists every TID
// of fq in creation order.
func refLongestQueue(fq *Fq, tids []*TID) *queue {
	var longest *queue
	for i := range fq.flows {
		q := &fq.flows[i]
		if longest == nil || q.q.Bytes() > longest.q.Bytes() {
			longest = q
		}
	}
	for _, tid := range tids {
		if q := &tid.overflowQ; q.q.Bytes() > longest.q.Bytes() {
			longest = q
		}
	}
	return longest
}

// TestLongestQueueMatchesReferenceScan: randomized enqueue/dequeue across
// two TIDs (so overflow queues participate) with byte-count ties; the
// occupancy-tracked victim must equal the reference scan at every step.
func TestLongestQueueMatchesReferenceScan(t *testing.T) {
	fq := New(Config{Flows: 16, Limit: 1 << 30})
	t1, t2 := fq.NewTID(), fq.NewTID()
	tids := []*TID{t1, t2}
	r := sim.NewRand(11)
	now := sim.Time(0)
	for step := 0; step < 5000; step++ {
		tid := tids[r.Intn(2)]
		if r.Intn(3) != 0 {
			// Few flows over few sizes: hash collisions exercise the
			// overflow queues, equal sizes force ties.
			tid.Enqueue(mkp(uint64(r.Intn(8)), 100*(1+r.Intn(3))), now)
		} else {
			tid.Pop(now, codel.Default())
		}
		got, want := fq.longestQueue(), refLongestQueue(fq, tids)
		if got != want {
			t.Fatalf("step %d: longestQueue picked idx %d (%d B), reference idx %d (%d B)",
				step, got.idx, got.q.Bytes(), want.idx, want.q.Bytes())
		}
	}
}
