package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts: the
// same pass of identical work takes ±15% from one second to the next, and
// whole runs of identical code drift by 10–40% over minutes as neighbours
// come and go. Wall-clock figures then measure the host as much as the
// program. So the timed end-to-end figures are read on a reference clock:
// wall time divided by how long the host takes, at that moment, to run a
// fixed reference kernel. Probes of the kernel are interleaved with the
// measured work, outside its timing: one before each set-up repetition,
// each Fig 8 pair and each serve-mix request whose lane has time to spare
// before the request is due, and one after each streamed chunk. A host
// that runs 10% slower makes both the work and the probes slower, and the
// reading stays put; a program that runs 10% slower moves it by 10%.
//
// The kernel shares no code with the program, allocates nothing (it neither
// triggers a collection nor assists one) and works on a table on its own
// stack. Each call seeds the table differently: a kernel that repeats one
// branch sequence is learned by the branch predictor when run back to back
// and then reads twice as fast as it does between pieces of other work.
// With fresh data it reads the same in a tight loop after a forced
// collection as it does between Fig 8 pairs, so the program's own activity
// does not slow the probes and cannot hide its own cost.
//
// refProbesPerMS fixes the scale: one reference millisecond is the time the
// host takes to run the kernel refProbesPerMS times. On the 2-vCPU Intel
// Xeon VM the benchmark was written on, a probe took about 22 µs, so a
// reference millisecond was about one wall millisecond.
const refProbesPerMS = 45

// refKernelSteps is the kernel's length: long enough that the probe's own
// timer reads (tens of nanoseconds) are noise.
const refKernelSteps = 1900

var (
	refSeed atomic.Uint32 // advanced by every probe
	refSink atomic.Uint32 // keeps the kernels' results alive
)

// refKernel is fixed integer work like the mappers' inner loops: a
// dependent chain of table reads and writes with data-dependent branches.
func refKernel(seed uint32) uint32 {
	var table [1024]uint32
	x := seed | 1
	for i := range table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		table[i] = x
	}
	var acc uint32
	for i := 0; i < refKernelSteps; i++ {
		j := (acc ^ uint32(i)) & (uint32(len(table)) - 1)
		v := table[j]
		if v&1 == 0 {
			acc += v >> 3
		} else {
			acc ^= v << 1
		}
		table[j] = v*1664525 + 1013904223
	}
	return acc
}

// refProbe runs the kernel once on fresh data and returns its wall time in
// nanoseconds.
func refProbe() float64 {
	seed := refSeed.Add(0x9E3779B9)
	t0 := time.Now()
	acc := refKernel(seed)
	d := time.Since(t0)
	refSink.Add(acc)
	return float64(d)
}

// refScale turns a window's probe times (ns each) into wall nanoseconds per
// reference millisecond. It takes the median, so a probe that a preemption
// happened to stretch does not move it.
func refScale(probeNS []float64) float64 {
	return median(probeNS) * refProbesPerMS
}

// refMS converts wall milliseconds to reference milliseconds at scale
// (wall ns per reference ms, from refScale).
func refMS(wallMS []float64, scale float64) []float64 {
	out := make([]float64, len(wallMS))
	for i, ms := range wallMS {
		out[i] = ms * 1e6 / scale
	}
	return out
}

// refRate is work done per reference second, for work done in wallMS wall
// milliseconds at scale.
func refRate(work, wallMS, scale float64) float64 {
	return work / (wallMS * 1e6 / scale / 1000)
}

// refNote describes the windows' scales: how many wall ms one reference ms
// took, median and range.
func refNote(scales []float64) string {
	lo, hi := scales[0], scales[0]
	for _, v := range scales {
		lo, hi = min(lo, v), max(hi, v)
	}
	return fmt.Sprintf("1 reference ms = %.3f wall ms (median over %d windows, %.3f–%.3f)",
		median(scales)/1e6, len(scales), lo/1e6, hi/1e6)
}
