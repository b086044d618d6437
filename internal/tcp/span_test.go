package tcp

import (
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestSpanInsertMerge(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	if len(ss.s) != 2 || ss.bytes() != 20 {
		t.Fatalf("disjoint insert broken: %+v", ss.s)
	}
	// Adjacent merges.
	ss.insert(20, 30)
	if len(ss.s) != 1 || ss.s[0] != (span{10, 40}) {
		t.Fatalf("adjacency merge broken: %+v", ss.s)
	}
	// Overlapping extends.
	ss.insert(5, 15)
	if ss.s[0] != (span{5, 40}) {
		t.Fatalf("overlap merge broken: %+v", ss.s)
	}
	// Empty span ignored.
	ss.insert(50, 50)
	if len(ss.s) != 1 {
		t.Fatal("empty span inserted")
	}
}

// TestSpanInsertBeforeExisting is a regression test for the aliasing bug
// where inserting a span ahead of existing spans corrupted the set (the
// two-append path overwrote unread elements).
func TestSpanInsertBeforeExisting(t *testing.T) {
	var ss spanSet
	ss.insert(100, 110)
	ss.insert(120, 130)
	ss.insert(140, 150)
	ss.insert(10, 20) // goes in front; must not clobber the rest
	want := []span{{10, 20}, {100, 110}, {120, 130}, {140, 150}}
	if len(ss.s) != len(want) {
		t.Fatalf("got %+v", ss.s)
	}
	for i, sp := range want {
		if ss.s[i] != sp {
			t.Fatalf("span %d = %+v, want %+v (set %+v)", i, ss.s[i], sp, ss.s)
		}
	}
}

func TestSpanPruneBelow(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	ss.pruneBelow(15)
	if ss.s[0] != (span{15, 20}) || ss.bytes() != 15 {
		t.Fatalf("prune broken: %+v", ss.s)
	}
	ss.pruneBelow(100)
	if !ss.empty() {
		t.Fatal("prune all failed")
	}
}

func TestSpanContains(t *testing.T) {
	var ss spanSet
	ss.insert(10, 30)
	if !ss.contains(10, 20) || !ss.contains(15, 5) {
		t.Fatal("contains false negative")
	}
	if ss.contains(25, 10) || ss.contains(5, 5) {
		t.Fatal("contains false positive")
	}
}

func TestSpanNextGap(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	// Gap before first span.
	if s, n := ss.nextGap(0, 40, 100); s != 0 || n != 10 {
		t.Fatalf("gap = (%d,%d), want (0,10)", s, n)
	}
	// Starting inside a span jumps past it.
	if s, n := ss.nextGap(12, 40, 100); s != 20 || n != 10 {
		t.Fatalf("gap = (%d,%d), want (20,10)", s, n)
	}
	// Chunk limit applies.
	if s, n := ss.nextGap(20, 40, 4); s != 20 || n != 4 {
		t.Fatalf("gap = (%d,%d), want (20,4)", s, n)
	}
	// No gap past the limit.
	if _, n := ss.nextGap(30, 40, 100); n != 0 {
		t.Fatalf("gap beyond limit: n=%d", n)
	}
}

func TestSpanBlocks(t *testing.T) {
	var ss spanSet
	ss.insert(10, 20)
	ss.insert(30, 40)
	ss.insert(50, 60)
	b := ss.blocks(nil, 2)
	if len(b) != 2 || b[0] != (pkt.SackBlock{Start: 50, End: 60}) || b[1] != (pkt.SackBlock{Start: 30, End: 40}) {
		t.Fatalf("blocks = %+v", b)
	}
	if b := ss.blocks(nil, 10); len(b) != 3 || b[2] != (pkt.SackBlock{Start: 10, End: 20}) {
		t.Fatalf("blocks clamp broken: %+v", b)
	}
	// Blocks append after dst's existing contents, reusing its capacity.
	dst := make([]pkt.SackBlock, 1, 8)
	if b := ss.blocks(dst, 1); len(b) != 2 || &b[0] != &dst[0] || b[1] != (pkt.SackBlock{Start: 50, End: 60}) {
		t.Fatalf("blocks into dst = %+v", b)
	}
	var empty spanSet
	if len(empty.blocks(nil, 3)) != 0 {
		t.Fatal("blocks of empty set")
	}
}

// refInsert is the scoreboard merge as first written: it builds a fresh
// output slice on every call. The in-place insert must produce exactly
// the same set.
func refInsert(s []span, start, end int64) []span {
	if start >= end {
		return s
	}
	out := make([]span, 0, len(s)+1)
	placed := false
	for _, sp := range s {
		switch {
		case sp.end < start:
			out = append(out, sp)
		case end < sp.start:
			if !placed {
				out = append(out, span{start, end})
				placed = true
			}
			out = append(out, sp)
		default:
			if sp.start < start {
				start = sp.start
			}
			if sp.end > end {
				end = sp.end
			}
		}
	}
	if !placed {
		out = append(out, span{start, end})
	}
	return out
}

// TestSpanInsertMatchesReference drives random inserts and prunes into
// the in-place scoreboard and the reference merge side by side. Short
// spans on a small byte range make overlap, adjacency and containment
// (both ways) frequent; after every step the sets must be equal and
// blocks must list them highest first.
func TestSpanInsertMatchesReference(t *testing.T) {
	r := sim.NewRand(2017)
	for trial := 0; trial < 200; trial++ {
		var ss spanSet
		var ref []span
		floor := int64(0)
		for step := 0; step < 60; step++ {
			if r.Intn(8) == 0 {
				floor += int64(r.Intn(20))
				ss.pruneBelow(floor)
				var kept []span
				for _, sp := range ref {
					if sp.end <= floor {
						continue
					}
					if sp.start < floor {
						sp.start = floor
					}
					kept = append(kept, sp)
				}
				ref = kept
			} else {
				start := floor + int64(r.Intn(200))
				end := start + int64(r.Intn(30)) - 2 // includes empty and inverted spans
				ss.insert(start, end)
				ref = refInsert(ref, start, end)
			}
			if len(ss.s) != len(ref) {
				t.Fatalf("trial %d step %d: %+v, reference %+v", trial, step, ss.s, ref)
			}
			for i := range ref {
				if ss.s[i] != ref[i] {
					t.Fatalf("trial %d step %d: %+v, reference %+v", trial, step, ss.s, ref)
				}
			}
			k := 1 + r.Intn(maxSackBlk)
			b := ss.blocks(nil, k)
			if want := min(k, len(ref)); len(b) != want {
				t.Fatalf("trial %d step %d: blocks(%d) gave %d, want %d", trial, step, k, len(b), want)
			}
			for i, blk := range b {
				sp := ref[len(ref)-1-i]
				if blk != (pkt.SackBlock{Start: sp.start, End: sp.end}) {
					t.Fatalf("trial %d step %d: block %d = %+v, want %+v", trial, step, i, blk, sp)
				}
			}
		}
	}
}

// TestSpanInsertReusesStorage: once the backing array holds the set's
// peak span count, inserts, merges and prunes allocate nothing.
func TestSpanInsertReusesStorage(t *testing.T) {
	var ss spanSet
	for i := int64(0); i < 8; i++ {
		ss.insert(100*i, 100*i+10)
	}
	ss.clear()
	allocs := testing.AllocsPerRun(100, func() {
		ss.insert(500, 510)
		ss.insert(100, 110)
		ss.insert(300, 310)
		ss.insert(105, 305) // swallows the middle
		ss.insert(0, 50)
		ss.insert(50, 100) // adjacency on both sides
		ss.pruneBelow(200)
		ss.clear()
	})
	if allocs != 0 {
		t.Fatalf("warmed spanSet allocates %.1f times per round", allocs)
	}
}

// TestSpanSetModel compares the spanSet against a boolean-array model
// under random insert/prune sequences.
func TestSpanSetModel(t *testing.T) {
	const world = 256
	type op struct {
		Insert   bool
		A, B, At uint8
	}
	check := func(ops []op) bool {
		var ss spanSet
		var m [world]bool
		for _, o := range ops {
			if o.Insert {
				lo, hi := int64(o.A), int64(o.B)
				if lo > hi {
					lo, hi = hi, lo
				}
				ss.insert(lo, hi)
				for i := lo; i < hi; i++ {
					m[i] = true
				}
			} else {
				ss.pruneBelow(int64(o.At))
				for i := 0; i < int(o.At); i++ {
					m[i] = false
				}
			}
			// Compare coverage, invariants.
			var bytes int64
			prevEnd := int64(-1)
			for _, sp := range ss.s {
				if sp.start >= sp.end || sp.start <= prevEnd {
					return false // unsorted, empty, or overlapping/adjacent-unmerged
				}
				prevEnd = sp.end
				bytes += sp.end - sp.start
			}
			var want int64
			for i := 0; i < world; i++ {
				if m[i] {
					want++
				}
				covered := ss.contains(int64(i), 1)
				if covered != m[i] {
					return false
				}
			}
			if bytes != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
