package pkt

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestDupSackNoAliasing is the regression test for the Dup aliasing bug:
// the duplicated header must not share the SACK backing array with the
// original, or edits to one connection's SACK list corrupt the clone's.
func TestDupSackNoAliasing(t *testing.T) {
	p := &Packet{
		Proto: ProtoTCP,
		TCP: &TCPHeader{
			Sack: []SackBlock{{Start: 10, End: 20}, {Start: 40, End: 50}},
		},
	}
	// Leave spare capacity so an append to the original would write into
	// a shared backing array if Dup aliased it.
	p.TCP.Sack = append(make([]SackBlock, 0, 8), p.TCP.Sack...)
	d := p.Dup()

	p.TCP.Sack[0] = SackBlock{Start: 1, End: 2}
	p.TCP.Sack = append(p.TCP.Sack, SackBlock{Start: 90, End: 99})
	if d.TCP.Sack[0] != (SackBlock{Start: 10, End: 20}) {
		t.Fatalf("dup SACK mutated through the original: %+v", d.TCP.Sack[0])
	}
	if len(d.TCP.Sack) != 2 {
		t.Fatalf("dup SACK length changed: %d", len(d.TCP.Sack))
	}
	d.TCP.Sack[1] = SackBlock{Start: 7, End: 8}
	if p.TCP.Sack[1] == (SackBlock{Start: 7, End: 8}) {
		t.Fatal("original SACK mutated through the dup")
	}
}

func TestPoolRecyclesPackets(t *testing.T) {
	pl := &Pool{enabled: true}
	a := pl.Get()
	a.Size = 100
	a.Proto = ProtoTCP
	a.Retries = 3
	pl.Put(a)
	b := pl.Get()
	if b != a {
		t.Fatal("pool did not recycle the released packet")
	}
	if *b != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *b)
	}
	st := pl.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 || st.Live() != 1 {
		t.Fatalf("stats wrong: %+v live=%d", st, st.Live())
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	if pl.Stats().Fresh != 1 {
		t.Fatal("first Get did not carve from a chunk")
	}
	pl.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	pl.Put(p)
}

func TestPoolReleasedPacketUnqueueable(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	pl.Put(p)
	// Pool's free list uses p.next, so Queue.Push already panics on the
	// link; a released packet at the free-list head has next == nil, so
	// the pooled flag is what catches it.
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic queueing a released packet")
		}
	}()
	q.Push(p)
}

func TestPoolRecyclesHeaders(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	h := pl.GetHeader()
	h.Sack = append(h.Sack, SackBlock{1, 2}, SackBlock{3, 4})
	p.TCP = h
	pl.Put(p)
	if q := pl.Get(); q != p {
		t.Fatal("packet not recycled")
	}
	h2 := pl.GetHeader()
	if h2 != h {
		t.Fatal("header not recycled with its packet")
	}
	if len(h2.Sack) != 0 || cap(h2.Sack) < 2 {
		t.Fatalf("recycled header Sack not reset with capacity: len=%d cap=%d",
			len(h2.Sack), cap(h2.Sack))
	}
	if pl.Stats().Headers != 1 {
		t.Fatalf("allocated %d headers, want 1", pl.Stats().Headers)
	}
}

func TestPoolDisabledStillCounts(t *testing.T) {
	pl := &Pool{enabled: false}
	a := pl.Get()
	pl.Put(a)
	b := pl.Get()
	if b == a {
		t.Fatal("disabled pool recycled a packet")
	}
	// It never carves: one News per Get, no chunk, no Fresh.
	if pl.chunk != nil {
		t.Fatal("disabled pool allocated a chunk")
	}
	st := pl.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Live() != 1 || st.News != 2 || st.Fresh != 0 {
		t.Fatalf("disabled pool stats wrong: %+v", st)
	}
}

func TestPoolOfAttachesOnce(t *testing.T) {
	s := sim.New(1)
	a := PoolOf(s)
	b := PoolOf(s)
	if a == nil || a != b {
		t.Fatal("PoolOf did not return one pool per world")
	}
	if PoolOf(sim.New(2)) == a {
		t.Fatal("distinct worlds share a pool")
	}
}

func TestPoolPrefersFreeListOverChunk(t *testing.T) {
	pl := &Pool{enabled: true}
	a, b := pl.Get(), pl.Get()
	pl.Put(a)
	if c := pl.Get(); c != a {
		t.Fatal("Get carved a new packet while one was free")
	}
	if len(pl.chunk) != ChunkPackets-2 {
		t.Fatalf("chunk has %d unused packets, want %d", len(pl.chunk), ChunkPackets-2)
	}
	pl.Put(b)
	if st := pl.Stats(); st.Fresh != 2 || st.News != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestPoolCarvedPacketZeroAndQueueable(t *testing.T) {
	pl := &Pool{enabled: true}
	p := pl.Get()
	if *p != (Packet{}) {
		t.Fatalf("carved packet not zero-valued: %+v", *p)
	}
	// Not marked pooled, so it can be queued straight away.
	var q Queue
	q.Push(p)
	if q.Pop() != p {
		t.Fatal("carved packet did not queue")
	}
}

func TestPoolNewsCountsChunks(t *testing.T) {
	pl := &Pool{enabled: true}
	for i := 0; i < ChunkPackets; i++ {
		pl.Get()
	}
	if st := pl.Stats(); st.News != 1 || st.Fresh != ChunkPackets {
		t.Fatalf("after one chunk's worth: %+v", st)
	}
	pl.Get()
	if st := pl.Stats(); st.News != 2 || st.Fresh != ChunkPackets+1 {
		t.Fatalf("after chunk+1: %+v", st)
	}
}

// TestPoolFreshIsLiveHighWater: a packet is carved only when every
// earlier one is live, so Fresh tracks the maximum of Live exactly.
func TestPoolFreshIsLiveHighWater(t *testing.T) {
	pl := &Pool{enabled: true}
	rng := rand.New(rand.NewSource(15))
	var held []*Packet
	var peak int64
	for i := 0; i < 20000; i++ {
		// Drift the live count up and down across several chunks.
		getBias := 0.55
		if (i/4000)%2 == 1 {
			getBias = 0.45
		}
		if len(held) == 0 || rng.Float64() < getBias {
			held = append(held, pl.Get())
		} else {
			k := rng.Intn(len(held))
			pl.Put(held[k])
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		st := pl.Stats()
		peak = max(peak, st.Live())
		if st.Fresh != peak {
			t.Fatalf("step %d: Fresh %d, Live high-water %d", i, st.Fresh, peak)
		}
	}
	st := pl.Stats()
	if want := (peak + ChunkPackets - 1) / ChunkPackets; st.News != want {
		t.Fatalf("News %d chunks for a high-water mark of %d, want %d", st.News, peak, want)
	}
	if peak < 2*ChunkPackets {
		t.Fatalf("sequence peaked at %d live packets; it should span several chunks", peak)
	}
}
