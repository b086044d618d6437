package mactid

import (
	"testing"

	"repro/internal/codel"
	"repro/internal/pkt"
	"repro/internal/sim"
)

func mkp(flow uint64, size int) *pkt.Packet {
	return &pkt.Packet{Flow: flow, Size: size, Proto: pkt.ProtoUDP}
}

func pa() codel.Params { return codel.Default() }

func TestPerTIDIsolation(t *testing.T) {
	fq := New(Config{})
	t1 := fq.NewTID()
	t2 := fq.NewTID()
	a := mkp(1, 100)
	b := mkp(2, 100)
	t1.Enqueue(a, 0)
	t2.Enqueue(b, 0)
	if got := t1.Pop(0, pa()); got != a {
		t.Fatalf("TID1 dequeued %+v", got)
	}
	if got := t2.Pop(0, pa()); got != b {
		t.Fatalf("TID2 dequeued %+v", got)
	}
	if t1.Pop(0, pa()) != nil || t2.Pop(0, pa()) != nil {
		t.Fatal("TIDs not empty")
	}
}

func TestFlowOrderWithinTID(t *testing.T) {
	fq := New(Config{})
	tid := fq.NewTID()
	for i := 0; i < 20; i++ {
		p := mkp(7, 1500)
		p.SeqNo = int64(i)
		tid.Enqueue(p, 0)
	}
	for i := 0; i < 20; i++ {
		p := tid.Pop(0, pa())
		if p == nil || p.SeqNo != int64(i) {
			t.Fatalf("order violated at %d", i)
		}
	}
}

// TestHashCollisionGoesToOverflow: a queue bound to one TID must divert
// same-hash packets of another TID to the overflow queue (Algorithm 1,
// lines 6-8).
func TestHashCollisionGoesToOverflow(t *testing.T) {
	fq := New(Config{Flows: 1}) // force every packet onto one queue
	t1 := fq.NewTID()
	t2 := fq.NewTID()
	a := mkp(1, 100)
	b := mkp(2, 100)
	t1.Enqueue(a, 0)
	t2.Enqueue(b, 0) // collides; must land in t2's overflow queue
	if fq.HashCollisions() != 1 {
		t.Fatalf("collisions = %d, want 1", fq.HashCollisions())
	}
	if got := t2.Pop(0, pa()); got != b {
		t.Fatalf("TID2 did not recover its packet from overflow: %+v", got)
	}
	if got := t1.Pop(0, pa()); got != a {
		t.Fatalf("TID1 lost its packet: %+v", got)
	}
}

// TestTIDBindingReleased: after a queue empties out of the old list, its
// TID binding clears so another TID can claim it (Algorithm 2, line 18).
func TestTIDBindingReleased(t *testing.T) {
	fq := New(Config{Flows: 1})
	t1 := fq.NewTID()
	t2 := fq.NewTID()
	t1.Enqueue(mkp(1, 100), 0)
	// Drain: first dequeue serves from the new list; the queue then
	// rotates to the old list and is released once found empty.
	if t1.Pop(0, pa()) == nil {
		t.Fatal("expected packet")
	}
	if t1.Pop(0, pa()) != nil {
		t.Fatal("expected empty")
	}
	// Now TID2 can claim the hash queue without a collision.
	before := fq.HashCollisions()
	t2.Enqueue(mkp(2, 100), 0)
	if fq.HashCollisions() != before {
		t.Fatal("binding not released: collision recorded")
	}
	if t2.Pop(0, pa()) == nil {
		t.Fatal("TID2 lost its packet")
	}
}

// TestGlobalLimitProtectsThinTIDs: the global limit must drop from the
// longest queue so a flooding TID cannot lock out others — the exact
// lock-out the paper fixes in §4.1.2.
func TestGlobalLimitProtectsThinTIDs(t *testing.T) {
	fq := New(Config{Limit: 100})
	bulk := fq.NewTID()
	thin := fq.NewTID()
	for i := 0; i < 200; i++ {
		bulk.Enqueue(mkp(1, 1500), 0)
	}
	thin.Enqueue(mkp(2, 100), 0)
	if fq.Len() > 100 {
		t.Fatalf("global limit not enforced: %d", fq.Len())
	}
	if fq.OverlimitDrops() == 0 {
		t.Fatal("no overlimit drops")
	}
	if thin.Len() != 1 {
		t.Fatal("thin TID's packet was dropped")
	}
	if got := thin.Pop(0, pa()); got == nil || got.Flow != 2 {
		t.Fatalf("thin TID dequeued %+v", got)
	}
}

func TestSparseQueuePriorityWithinTID(t *testing.T) {
	fq := New(Config{})
	tid := fq.NewTID()
	for i := 0; i < 50; i++ {
		tid.Enqueue(mkp(1, 1500), 0)
	}
	// Exhaust the bulk flow's quantum so it rotates to the old list.
	tid.Pop(0, pa())
	tid.Pop(0, pa())
	sp := mkp(42, 100)
	tid.Enqueue(sp, 0)
	if got := tid.Pop(0, pa()); got != sp {
		t.Fatalf("sparse flow not prioritised; got flow %d", got.Flow)
	}
	if fq.SparseDequeues() == 0 {
		t.Fatal("sparse dequeue not counted")
	}
}

func TestLenTracking(t *testing.T) {
	fq := New(Config{})
	t1 := fq.NewTID()
	t2 := fq.NewTID()
	for i := 0; i < 5; i++ {
		t1.Enqueue(mkp(uint64(i), 100), 0)
	}
	for i := 0; i < 3; i++ {
		t2.Enqueue(mkp(uint64(100+i), 100), 0)
	}
	if t1.Len() != 5 || t2.Len() != 3 || fq.Len() != 8 {
		t.Fatalf("lens wrong: %d/%d/%d", t1.Len(), t2.Len(), fq.Len())
	}
	if !t1.Backlogged() {
		t.Fatal("t1 should be backlogged")
	}
	t1.Pop(0, pa())
	if t1.Len() != 4 || fq.Len() != 7 {
		t.Fatalf("lens after dequeue: %d/%d", t1.Len(), fq.Len())
	}
}

func TestCodelDropsCountedPerTID(t *testing.T) {
	fq := New(Config{})
	tid := fq.NewTID()
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		tid.Enqueue(mkp(1, 1500), now)
	}
	// Dequeue slowly at high sojourn.
	for i := 0; i < 300; i++ {
		now += 10 * sim.Millisecond
		if tid.Pop(now, pa()) == nil {
			break
		}
	}
	if fq.CodelDrops() == 0 {
		t.Fatal("CoDel never engaged")
	}
	// Accounting stays consistent.
	drained := 0
	for tid.Pop(now, pa()) != nil {
		drained++
	}
	if tid.Len() != 0 || fq.Len() != 0 {
		t.Fatalf("length accounting broken: tid=%d fq=%d", tid.Len(), fq.Len())
	}
}

func TestPurge(t *testing.T) {
	fq := New(Config{})
	tid := fq.NewTID()
	for i := 0; i < 30; i++ {
		tid.Enqueue(mkp(uint64(i%3), 1000), 0)
	}
	tid.Purge()
	if tid.Len() != 0 || tid.Backlogged() {
		t.Fatalf("purge left %d packets", tid.Len())
	}
}

// TestConservation: packets either dequeue or drop; counters agree.
func TestConservation(t *testing.T) {
	dropped := 0
	fq := New(Config{Limit: 64, DropHook: func(*pkt.Packet) { dropped++ }})
	tids := []*TID{fq.NewTID(), fq.NewTID(), fq.NewTID()}
	r := sim.NewRand(11)
	enq, deq := 0, 0
	now := sim.Time(0)
	for i := 0; i < 3000; i++ {
		now += sim.Microsecond * 50
		tid := tids[r.Intn(3)]
		if r.Float64() < 0.7 {
			tid.Enqueue(mkp(uint64(r.Intn(8)), 64+r.Intn(1400)), now)
			enq++
		} else if tid.Pop(now, pa()) != nil {
			deq++
		}
	}
	for _, tid := range tids {
		for tid.Pop(now, pa()) != nil {
			deq++
		}
	}
	if enq != deq+dropped {
		t.Fatalf("conservation violated: enq=%d deq=%d drop=%d", enq, deq, dropped)
	}
	if fq.Len() != 0 {
		t.Fatalf("fq.Len=%d after drain", fq.Len())
	}
}
