package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// rtSample is a snapshot of the Go runtime counters a pass is charged
// with: heap bytes allocated, completed GC cycles, total GC pause and
// the scheduler-latency histogram.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
	schedLat   *metrics.Float64Histogram
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return rtSample{
		allocBytes: ms[0].Value.Uint64(),
		gcCycles:   ms[1].Value.Uint64(),
		pauseNs:    mem.PauseTotalNs,
		schedLat:   ms[2].Value.Float64Histogram(),
	}
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocBytes   float64
	gcCycles     float64
	pauseSeconds float64
	schedP99     float64 // seconds; upper edge of the bucket holding the 99th percentile
}

func (a rtSample) until(b rtSample) rtDelta {
	d := rtDelta{
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		pauseSeconds: float64(b.pauseNs-a.pauseNs) / 1e9,
	}
	counts := make([]uint64, len(b.schedLat.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return d
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			edge := b.schedLat.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.schedLat.Buckets[i]
			}
			d.schedP99 = edge
			break
		}
	}
	return d
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process. Where the kernel refuses, the mark keeps covering the
// whole process, which only makes later per-pass peaks read high.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
