package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/campaign"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the reporting rule for timing tails: the
// highest percentile that still has at least minBeyond samples above
// it. With n samples sorted ascending that is the nearest-rank
// percentile at rank n-minBeyond, i.e. the value with exactly minBeyond
// samples beyond it. It reports the value, the percentile (0-100) and
// false when there are too few samples for any such percentile.
func tailPercentile(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	n := len(xs)
	if minBeyond < 1 || n < minBeyond+1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - minBeyond // 1-based rank of the reported sample
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) from the current resident set, so the next reading covers only
// what follows. Where /proc does not allow it, the mark keeps counting
// from process start.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// Provenance identifies the code and machine behind one result.
type Provenance struct {
	Commit           string `json:"commit"`
	CodeFingerprint  string `json:"code_fingerprint"`
	BuildFingerprint string `json:"build_fingerprint"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	NProc            int    `json:"nproc"`
	Seed             uint64 `json:"seed"`
}

func provenance(root string, seed uint64) Provenance {
	return Provenance{
		Commit:           vcsRevision(),
		CodeFingerprint:  sourceFingerprint(root),
		BuildFingerprint: campaign.BuildFingerprint(),
		GoVersion:        runtime.Version(),
		CPUModel:         cpuModel(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NProc:            runtime.NumCPU(),
		Seed:             seed,
	}
}

// vcsRevision is the commit the driver was built from, as the go command
// stamped it, with "+dirty" for uncommitted changes; "unknown" when the
// build had no version control metadata (a checkout without .git).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceFingerprint hashes every Go source and module file under root
// (skipping hidden directories such as the build output), so a result
// names the exact code it measured even in a checkout without VCS
// metadata.
func sourceFingerprint(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, filepath.ToSlash(rel))
		h.Write([]byte{0})
		io.Copy(h, f)
		h.Write([]byte{0})
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
