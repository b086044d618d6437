package pkt

import (
	"sync/atomic"

	"repro/internal/sim"
)

// poolingEnabled is the process-wide default for new worlds' packet
// pools. It exists so equivalence tests can run identical scenarios with
// recycling on and off; production paths leave it on.
var poolingEnabled atomic.Bool

func init() { poolingEnabled.Store(true) }

// SetPooling sets the process-wide default for packet pools created
// after the call (existing pools are unaffected). With pooling off a
// pool still counts allocations and releases — Get always returns a
// fresh Packet — which makes on/off runs directly comparable.
func SetPooling(on bool) { poolingEnabled.Store(on) }

// PoolingEnabled reports the current process-wide default.
func PoolingEnabled() bool { return poolingEnabled.Load() }

// ChunkPackets is how many packets the pool allocates at once when its
// free list is empty (about 43 KB). A world thus holds at most one
// partly used chunk beyond its peak number of live packets.
const ChunkPackets = 256

// PoolStats are a pool's lifetime counters.
type PoolStats struct {
	Gets    int64 // packets handed out
	Puts    int64 // packets released
	News    int64 // heap allocations: one per chunk (one per Get with pooling off)
	Fresh   int64 // packets carved from a chunk, i.e. the high-water mark of Live
	Headers int64 // TCP headers heap-allocated
}

// Live reports packets currently held by the simulation (handed out and
// not yet released).
func (s PoolStats) Live() int64 { return s.Gets - s.Puts }

// Pool is a per-world packet free list. Every layer of one simulation
// shares a single Pool (see PoolOf), so a packet released at any sink —
// final delivery, a queue drop, a retry-limit drop — is recycled by the
// next traffic source that needs one. Pools are intentionally not
// goroutine-safe: a simulation world is single-threaded, and parallel
// campaign runs each own a world and therefore a pool.
type Pool struct {
	free    *Packet    // intrusive free list through Packet.next
	chunk   []Packet   // never-used packets of the current chunk
	hfree   *TCPHeader // recycled TCP headers, linked through sackNext
	stats   PoolStats
	enabled bool
}

// NewPool creates a pool honouring the process-wide pooling default.
func NewPool() *Pool { return &Pool{enabled: PoolingEnabled()} }

// PoolOf returns the world's packet pool, creating and attaching it on
// first use. The pool rides on the Sim's allocator slot so that traffic
// sources, the TCP stack and the MAC all resolve the same instance.
func PoolOf(s *sim.Sim) *Pool {
	if p, ok := s.Allocator().(*Pool); ok {
		return p
	}
	p := NewPool()
	s.SetAllocator(p)
	return p
}

// Stats returns the pool's counters.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// Get returns a zero-valued packet: a recycled one when one is free,
// otherwise the next never-used packet of the current chunk, allocating
// a new chunk when that runs out. The caller owns it until it hands it
// to another layer or releases it with Put.
func (pl *Pool) Get() *Packet {
	pl.stats.Gets++
	if p := pl.free; p != nil {
		pl.free = p.next
		hdr := p.TCP
		*p = Packet{}
		if hdr != nil {
			pl.putHeader(hdr)
		}
		return p
	}
	if !pl.enabled {
		pl.stats.News++
		return &Packet{}
	}
	if len(pl.chunk) == 0 {
		pl.chunk = make([]Packet, ChunkPackets)
		pl.stats.News++
	}
	p := &pl.chunk[0]
	pl.chunk = pl.chunk[1:]
	pl.stats.Fresh++
	return p
}

// Put releases p back to the pool. p must not be queued or referenced by
// any other layer; releasing the same packet twice panics, as it always
// indicates an ownership bug. A packet that was never obtained from the
// pool may be released into it.
func (pl *Pool) Put(p *Packet) {
	if p.pooled {
		panic("pkt: packet released twice")
	}
	if p.next != nil {
		panic("pkt: releasing a queued packet")
	}
	pl.stats.Puts++
	if !pl.enabled {
		return
	}
	p.pooled = true
	p.next = pl.free
	pl.free = p
}

// GetHeader returns a zero-valued TCP header with any recycled Sack
// capacity retained, so steady-state ACK construction allocates nothing.
func (pl *Pool) GetHeader() *TCPHeader {
	h := pl.hfree
	if h == nil {
		pl.stats.Headers++
		return &TCPHeader{}
	}
	pl.hfree = h.sackNext
	sack := h.Sack[:0]
	*h = TCPHeader{}
	h.Sack = sack
	return h
}

func (pl *Pool) putHeader(h *TCPHeader) {
	if !pl.enabled {
		return
	}
	h.sackNext = pl.hfree
	pl.hfree = h
}
