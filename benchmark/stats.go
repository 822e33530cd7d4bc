package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median returns the lower median of xs (xs is not modified), or 0 for an
// empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// tailBeyond is how many samples lie beyond the tail percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs with tailBeyond samples beyond
// it (the 11th largest sample) and that percentile. With fewer samples it
// returns the largest.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(len(s)-1-tailBeyond, 0)
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// vmHWM returns the peak resident set size of process pid ("self" for this
// process) in MiB, from /proc/<pid>/status.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// goSample is a snapshot of the Go runtime counters the go.* per-layer
// metrics are differences of.
type goSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	ms := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return goSample{allocBytes: val(ms[0]), gcCPU: val(ms[1]), totalCPU: val(ms[2])}
}
