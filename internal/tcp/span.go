package tcp

import "repro/internal/pkt"

// span is a half-open byte range [start, end).
type span struct{ start, end int64 }

// spanSet is a sorted list of disjoint spans.
type spanSet struct {
	s []span
}

// insert adds [start, end), merging with neighbours. The set is
// rewritten in place: the merged run of overlapping or adjacent spans
// collapses into its first slot and the tail shifts down, so once the
// backing array has grown to the connection's hole count no insert
// allocates.
//
//hj17:hotpath
func (ss *spanSet) insert(start, end int64) {
	if start >= end {
		return
	}
	s := ss.s
	// s[i:j] are the spans that overlap or touch [start, end): every
	// span before i ends strictly below start, every span from j on
	// starts strictly above end.
	i := 0
	for i < len(s) && s[i].end < start {
		i++
	}
	j := i
	for j < len(s) && s[j].start <= end {
		j++
	}
	if i == j {
		// Nothing to absorb: open a slot at i.
		s = append(s, span{})
		copy(s[i+1:], s[i:])
		s[i] = span{start, end}
		ss.s = s
		return
	}
	if s[i].start < start {
		start = s[i].start
	}
	if s[j-1].end > end {
		end = s[j-1].end
	}
	s[i] = span{start, end}
	n := copy(s[i+1:], s[j:])
	ss.s = s[:i+1+n]
}

// pruneBelow removes coverage below seq.
func (ss *spanSet) pruneBelow(seq int64) {
	out := ss.s[:0]
	for _, sp := range ss.s {
		if sp.end <= seq {
			continue
		}
		if sp.start < seq {
			sp.start = seq
		}
		out = append(out, sp)
	}
	ss.s = out
}

// contains reports whether [seq, seq+n) is fully covered.
func (ss *spanSet) contains(seq, n int64) bool {
	for _, sp := range ss.s {
		if seq >= sp.start && seq+n <= sp.end {
			return true
		}
	}
	return false
}

// bytes reports total covered bytes.
func (ss *spanSet) bytes() int64 {
	var n int64
	for _, sp := range ss.s {
		n += sp.end - sp.start
	}
	return n
}

// max reports the highest covered byte (0 when empty).
func (ss *spanSet) max() int64 {
	if len(ss.s) == 0 {
		return 0
	}
	return ss.s[len(ss.s)-1].end
}

// empty reports whether the set covers nothing.
func (ss *spanSet) empty() bool { return len(ss.s) == 0 }

// clear removes all spans.
func (ss *spanSet) clear() { ss.s = ss.s[:0] }

// nextGap finds the first uncovered range at or after seq and below limit,
// clamped to at most n bytes. It returns (start, length); length 0 means
// no gap.
func (ss *spanSet) nextGap(seq, limit, n int64) (int64, int64) {
	for _, sp := range ss.s {
		if sp.end <= seq {
			continue
		}
		if seq < sp.start {
			break
		}
		// seq is inside sp; jump past it.
		seq = sp.end
	}
	if seq >= limit {
		return 0, 0
	}
	length := n
	// Trim at the next covered span.
	for _, sp := range ss.s {
		if sp.start > seq {
			if seq+length > sp.start {
				length = sp.start - seq
			}
			break
		}
	}
	if seq+length > limit {
		length = limit - seq
	}
	return seq, length
}

// blocks appends up to k spans to dst as SACK blocks, highest first
// (fresh SACK info first, as receivers report). Passing a recycled
// header's Sack[:0] as dst fills it without allocating.
//
//hj17:hotpath
func (ss *spanSet) blocks(dst []pkt.SackBlock, k int) []pkt.SackBlock {
	for i := len(ss.s) - 1; i >= 0 && k > 0; i-- {
		dst = append(dst, pkt.SackBlock{Start: ss.s[i].start, End: ss.s[i].end})
		k--
	}
	return dst
}
