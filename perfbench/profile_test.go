package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim.(*Sim).RunUntil":                          "sim",
		"repro/internal/mac.(*Node).AddStation":                       "mac",
		"repro/internal/campaign/wire.(*Client).Dispatch.func1":       "wire",
		"repro/internal/campaign/cache.(*Store).Get":                  "cache",
		"repro/internal/campaign.Map[go.shape.struct {}]":             "campaign",
		"repro/internal/campaign.Map[repro/internal/x.T].func1":       "campaign",
		"repro/internal/exp.BuildWorld":                               "exp",
		"repro/internal/monitor.(*Monitor).Observe":                   "other",
		"runtime.mallocgc":                                            "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                "runtime",
		"net/http.(*conn).serve":                                      "other",
		"main.(*bench).measure":                                       "other",
		"":                                                            "other",
		"repro/internal/stats.(*Sample).Add":                          "stats",
		"repro/internal/mactid.(*Fq).Dequeue":                         "mactid",
		"repro/internal/analysis/hotalloc.run":                        "other",
		"repro/internal/campaign/journal.(*Writer).Append.deferwrap1": "journal",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(field int, x uint64) {
	b.varint(uint64(field)<<3 | 0)
	b.varint(x)
}

func (b *pb) bytes(field int, body []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(body)))
	b.Write(body)
}

func (b *pb) packed(field int, xs ...uint64) {
	var inner pb
	for _, x := range xs {
		inner.varint(x)
	}
	b.bytes(field, inner.Bytes())
}

// syntheticProfile builds a CPU profile with three functions:
//
//	id 1 sim.(*Sim).RunUntil, id 2 mac.(*Node).Input, id 3 runtime.mallocgc
//
// location 10 runs mac.Input inlined into sim.RunUntil (its innermost
// line is mac), location 20 runs runtime.mallocgc, location 30 runs
// sim.RunUntil. Samples (count, cpu ns): 60 ms leaf 10, 30 ms leaf 20
// (location ids encoded one per field), 10 ms leaf 30.
func syntheticProfile() []byte {
	var p pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/sim.(*Sim).RunUntil", "repro/internal/mac.(*Node).Input", "runtime.mallocgc"}

	var st pb // sample_type
	st.uint(1, 1)
	st.uint(2, 2)
	p.bytes(1, st.Bytes())
	st.Reset()
	st.uint(1, 3)
	st.uint(2, 4)
	p.bytes(1, st.Bytes())

	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, ns/10_000_000, ns)
		p.bytes(2, s.Bytes())
	}
	sample(60_000_000, true, 10, 30)
	sample(30_000_000, false, 20, 10, 30)
	sample(10_000_000, true, 30)

	location := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		for _, f := range fns {
			var line pb
			line.uint(1, f)
			line.uint(2, 42)
			l.bytes(4, line.Bytes())
		}
		p.bytes(4, l.Bytes())
	}
	location(10, 2, 1) // mac.Input inlined into sim.RunUntil
	location(20, 3)
	location(30, 1)

	for id, name := range []uint64{5, 6, 7} {
		var f pb
		f.uint(1, uint64(id+1))
		f.uint(2, name)
		p.bytes(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestFoldProfileSyntheticSelfTime(t *testing.T) {
	shares, err := foldProfile(syntheticProfile())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mac": 0.6, "runtime": 0.3, "sim": 0.1}
	sum := 0.0
	for m, v := range shares {
		sum += v
		if math.Abs(v-want[m]) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", m, v, want[m])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(modules)+1 {
		t.Errorf("%d shares, want one per module plus other (%d)", len(shares), len(modules)+1)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated protobuf folded without error")
	}
}
