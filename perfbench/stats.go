package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// sample is a set of measurements in one unit (milliseconds, microseconds,
// ...). Percentiles use the nearest-rank method on a sorted copy.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// pct returns the q-quantile (0 < q <= 1) by nearest rank; 0 when empty.
func (s sample) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) max() float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (nothing to divide by in the window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint describes the host and the code a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// GitSHA is the VCS revision stamped into the binary, when it was built
	// inside a git work tree; SourceSHA256 always identifies the Go sources
	// it was built from (module root and below).
	GitSHA       string `json:"git_sha"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
	Workload     string `json:"workload"`
}

func hostFingerprint(workload string, seed int64, moduleRoot string) fingerprint {
	fp := fingerprint{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitSHA:       "unknown",
		SourceSHA256: sourceDigest(moduleRoot),
		Seed:         seed,
		Workload:     workload,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.GitSHA = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, go.mod and go.sum file under root (paths
// and contents, in walk order), skipping build output directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
