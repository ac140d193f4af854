package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// manifest stamps a run with what it ran on and with: the ledger
// fields (Go version, GOMAXPROCS, nproc, CPU model, VCS revision), the
// seed, and the workload parameters.
func manifest(o options) map[string]any {
	m := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.budget.Seconds(),
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"revision":   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m["revision"] = s.Value
			case "vcs.modified":
				m["revision_modified"] = s.Value == "true"
			}
		}
	}
	return m
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is the process's resource counters at one instant.
type procSample struct {
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	gcs     uint32
	gcPause time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// procLayer returns the proc.* metrics for the window [a, b].
func procLayer(a, b procSample) map[string]float64 {
	return map[string]float64{
		"proc.cpu_s":       (b.cpu - a.cpu).Seconds(),
		"proc.alloc_mb":    float64(b.alloc-a.alloc) / (1 << 20),
		"proc.gc_cycles":   float64(b.gcs - a.gcs),
		"proc.gc_pause_ms": float64(b.gcPause-a.gcPause) / float64(time.Millisecond),
	}
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}
