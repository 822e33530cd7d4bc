package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// refCalibrationMS is the kernel time of the reference host (2 vCPUs) in a
// quiet minute. Host-time metrics are reported as if measured there.
const refCalibrationMS = 30.0

// calibrator measures how fast the host runs right now, with a fixed kernel
// of standard-library work that shares no code with the repository: a sort,
// map updates, SHA-256 and a floating point recurrence. The reference host's
// speed moved by up to 50% between runs minutes apart, in CPU time as much
// as in wall time, and the kernel's time moved with it: the ratio of a batch
// pass's time to the kernel's stayed within 2%. So every workload scales its
// host-time metrics by the kernel time taken in the same run.
type calibrator struct {
	src, xs []int
	m       map[int]int
	buf     []byte
	sink    uint64    // keeps the kernel's results live
	samples []float64 // ms
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{src: make([]int, 1<<17), xs: make([]int, 1<<17), m: make(map[int]int, 1<<16), buf: make([]byte, 1<<20)}
	for i := range c.src {
		c.src[i] = rng.Int()
	}
	rng.Read(c.buf)
	return c
}

// sample times one pass of the kernel. The pass allocates nothing, so the
// heap the code under test leaves behind does not change its cost.
func (c *calibrator) sample() {
	start := time.Now()
	copy(c.xs, c.src)
	sort.Ints(c.xs)
	clear(c.m)
	for i := 0; i < 1<<16; i++ {
		c.m[c.xs[(i*7919)&(len(c.xs)-1)]&(1<<15-1)] += i
	}
	var sum [32]byte
	for i := 0; i < 4; i++ {
		c.buf[i] ^= sum[0]
		sum = sha256.Sum256(c.buf)
	}
	f := 1.0
	for i := 0; i < 2_000_000; i++ {
		f = f*1.0000001 + float64(i&7)*1e-9
	}
	c.sink += uint64(len(c.m)) + uint64(sum[0]) + uint64(f)
	c.samples = append(c.samples, float64(time.Since(start).Nanoseconds())/1e6)
}

// ms is the median kernel time of the run.
func (c *calibrator) ms() float64 { return median(c.samples) }

// scale converts a host time measured in this run to the reference host: a
// host twice as fast as the reference has scale 2, and its times are
// doubled (its rates halved).
func (c *calibrator) scale() float64 { return refCalibrationMS / c.ms() }
