package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsUnsimulableFlags: values that once panicked ("non-positive
// ticker period") or hung the airtime scheduler exit 2 with the error,
// before any world is built.
func TestRejectsUnsimulableFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-udp-mbps", "Inf"},
		{"-udp-mbps", "NaN"},
		{"-udp-mbps", "0"},
		{"-udp-mbps", "-5"},
		{"-udp-mbps", "1e12"},
		{"-udp-mbps", "1e-300"},
		{"-scheme", "weighted-airtime", "-slow-weight", "1e-300"},
		{"-scheme", "weighted-airtime", "-slow-weight", "1e-6"},
		{"-scheme", "weighted-airtime", "-slow-weight", "1e300"},
		{"-scheme", "weighted-airtime", "-slow-weight", "Inf"},
		{"-scheme", "weighted-airtime", "-slow-weight", "-1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, errOut.String())
		}
		if flag := args[len(args)-2]; !strings.Contains(errOut.String(), flag) {
			t.Errorf("%v: stderr %q does not name %s", args, errOut.String(), flag)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed results for a rejected run: %q", args, out.String())
		}
	}
}

// TestAcceptsSimulableFlags: a short run with in-range values succeeds,
// and a TCP run does not judge the unused -udp-mbps.
func TestAcceptsSimulableFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-udp-mbps", "20", "-dur", "0.2", "-warmup", "0.1"},
		{"-scheme", "weighted-airtime", "-slow-weight", "0.5", "-dur", "0.2", "-warmup", "0.1"},
		{"-traffic", "tcp", "-udp-mbps", "0", "-dur", "0.2", "-warmup", "0.1"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d (stderr %q)", args, code, errOut.String())
		}
		if !strings.Contains(out.String(), "total goodput") {
			t.Fatalf("%v: no results printed: %q", args, out.String())
		}
	}
}
