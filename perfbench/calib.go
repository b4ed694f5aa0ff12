package main

import (
	"math"
	"time"
)

// The benchmark shares its host with other tenants, whose load changes
// how fast the same pass runs by up to a third from one minute to the
// next. The end-to-end times are therefore reported in reference
// seconds: each measured host time is scaled by how fast a fixed
// calibration kernel ran around it, relative to refKernelRate. The
// kernel is this package's own code, so a change to the simulator
// moves the reported numbers exactly as it moves the host times; only
// the host's drift cancels. The report prints the host times as well.

// refKernelRate is the calibration kernel's rate, in operations per
// second, on the host the benchmark was written on (2 vCPU Intel Xeon)
// at its usual load.
const refKernelRate = 180e6

// kernelOps is one calibration sample's work, about 15 ms.
const kernelOps = 2_500_000

// kernelWords sizes the kernel's table: 4 MB (kernelTableMB), beyond
// the private caches, like the simulator's own tables.
const (
	kernelWords   = 1 << 19
	kernelTableMB = kernelWords * 8 / (1 << 20)
)

// calibrator runs the kernel and keeps every sample's rate.
type calibrator struct {
	tab   []uint64
	rates []float64
	sink  uint64
}

// newCalibrator allocates the table and runs one unrecorded sample, so
// page faults do not slow the first recorded one.
func newCalibrator() *calibrator {
	c := &calibrator{tab: make([]uint64, kernelWords)}
	c.run()
	return c
}

// run is the kernel: xorshift-indexed read-modify-writes over the table.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	x, sum := uint64(88172645463325252), c.sink
	for i := 0; i < kernelOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (kernelWords - 1)
		sum += c.tab[j]
		c.tab[j] = sum ^ x
	}
	c.sink = sum
	return time.Since(start)
}

// sample runs the kernel once and records its rate.
func (c *calibrator) sample() {
	c.rates = append(c.rates, kernelOps/c.run().Seconds())
}

// toRef converts a host duration, in seconds, measured between samples
// i and i+1 into reference seconds.
func (c *calibrator) toRef(hostSeconds float64, i int) float64 {
	return hostSeconds * math.Sqrt(c.rates[i]*c.rates[i+1]) / refKernelRate
}
