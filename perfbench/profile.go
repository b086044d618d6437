package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the layers CPU self time is folded into: the repository's
// packages by their last path element, plus the Go runtime. Anything
// else (the standard library's net/http, encoding/json, syscall, this
// driver) folds into "other".
var modules = []string{
	"sim", "mac", "mactid", "fqcodel", "codel", "qdisc", "sched", "airtime",
	"dtt", "phy", "minstrel", "pkt", "tcp", "traffic", "ether", "stats",
	"bss", "exp", "campaign", "cache", "journal", "wire", "runtime",
}

var isModule = func() map[string]bool {
	m := make(map[string]bool, len(modules))
	for _, name := range modules {
		m[name] = true
	}
	return m
}()

// moduleOf maps a symbol name from a profile, e.g.
// "repro/internal/campaign/wire.(*Client).Dispatch.func1" or
// "runtime.mallocgc", to its module.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: its type list may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		if base := pkg[strings.LastIndexByte(pkg, '/')+1:]; isModule[base] {
			return base
		}
	}
	return "other"
}

// foldProfile parses a pprof CPU profile (gzip-compressed protobuf, as
// runtime/pprof writes it) and returns each module's share of the
// profile's CPU self time. A sample's self time belongs to the innermost
// function of its leaf location, inlined frames included.
func foldProfile(raw []byte) (map[string]float64, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byModule := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // CPU time; the first value is the sample count
		total += v
		name := ""
		if idx, ok := p.funcName[p.locLeaf[s.locs[0]]]; ok {
			name = p.strings[idx]
		}
		byModule[moduleOf(name)] += v
	}
	shares := make(map[string]float64, len(modules)+1)
	for _, m := range append(modules, "other") {
		shares[m] = 0
		if total > 0 {
			shares[m] = byModule[m] / total
		}
	}
	return shares, nil
}

// profile holds the parts of a pprof Profile message the fold needs.
type profile struct {
	samples  []profSample
	locLeaf  map[uint64]uint64 // location id → function id of its innermost line
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wt int, v uint64, body []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			err := eachField(body, func(num, wt int, v uint64, body []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(wt, v, body, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(wt, v, body, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, leaf uint64
			first := true
			err := eachField(body, func(num, wt int, v uint64, body []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					if !first {
						return nil // later lines are the callers inlined into
					}
					first = false
					return eachField(body, func(num, wt int, v uint64, _ []byte) error {
						if num == fLineFunction {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locLeaf[id] = leaf
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(body, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints feeds a repeated integer field to add, in either its
// packed (length-delimited) or its one-value-per-field encoding.
func appendVarints(wt int, v uint64, body []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errBadProto
		}
		add(x)
		body = body[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its value (varint and fixed-width types) or
// body (length-delimited type).
func eachField(b []byte, fn func(num, wt int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}
