package main

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
)

// The host this benchmark was built on drifts: a fixed workload's cost moves
// by 10–15% from one half second to the next, and for minutes at a time the
// whole VM runs at half to two thirds of its usual speed, while no steal
// time shows. Raw timings of the same code then spread by 10–50% between
// runs, and more rounds do not average it out. So the gated timings are
// host-adjusted. A round's child process calls calibrate after set-up and
// after each segment of its measured window, while its server is idle, and
// scales set-up by calibRefMs over the reading after it, and each segment by
// calibRefMs over the geometric mean of the readings around it.

// calibRefMs is calibrate's reading on the reference host, the 2-core VM the
// committed ledger was recorded on, at its usual speed.
const calibRefMs = 46.0

// calibWords is the size of calibrate's buffer: 16 MiB.
const calibWords = 2 << 20

// calibSink keeps the calibration workload's result live.
var calibSink atomic.Uint64

// calibrate measures a fixed workload that runs no periodica code, so its
// cost moves only with the host: calibWork over words on one thread, then
// over the two halves of words on two threads at once. It returns the
// geometric mean of the two CPU times, in milliseconds. CPU time rather than
// wall time, so that a collection the served requests left running does not
// count. Both readings, because the host's slow spells slow the two cores
// differently: over three of them, neither alone tracked every workload, and
// their mean tracked best (see README.md). words is allocated once per
// process, so a reading allocates nothing and leaves the heap alone.
func calibrate(words []uint64) float64 {
	half := len(words) / 2
	return math.Sqrt(onThreads(words) * onThreads(words[:half], words[half:]))
}

// onThreads runs calibWork over every part at once, each on a goroutine
// locked to its own thread, and returns the CPU time the threads spent, in
// milliseconds.
func onThreads(parts ...[]uint64) float64 {
	cpu := make(chan float64, len(parts))
	for _, p := range parts {
		go func() {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPUMs()
			calibWork(p)
			cpu <- threadCPUMs() - start
		}()
	}
	var total float64
	for range parts {
		total += <-cpu
	}
	return total
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package lacks.
const rusageThread = 1

// threadCPUMs returns the calling thread's user+system CPU time in
// milliseconds, or NaN if it cannot be read.
func threadCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e3 + float64(ru.Utime.Usec+ru.Stime.Usec)/1e3
}

// calibWork fills words with pseudo-random values, sorts an eighth of them
// and reads a million of them at random, touching memory the way a mine
// does.
func calibWork(words []uint64) {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range words {
		words[i] = next()
	}
	slices.Sort(words[:len(words)/8])
	var acc uint64
	for i := 0; i < 1<<20; i++ {
		acc += words[next()%uint64(len(words))]
	}
	calibSink.Add(acc)
}

// newCalibBuffer returns calibrate's buffer with every page touched, so that
// no reading pays for faulting it in.
func newCalibBuffer() []uint64 {
	words := make([]uint64, calibWords)
	for i := 0; i < len(words); i += 512 {
		words[i] = 1
	}
	return words
}

// hostScales turns a round's calibration readings into the factors that take
// its timings to the reference host. Reading 0 follows set-up, which is
// scaled by calibRefMs over it; reading i follows segment i, which is scaled
// by calibRefMs over the geometric mean of readings i-1 and i.
func hostScales(calibMs []float64) (setup float64, seg []float64) {
	setup = calibRefMs / calibMs[0]
	for i := 1; i < len(calibMs); i++ {
		seg = append(seg, calibRefMs/math.Sqrt(calibMs[i-1]*calibMs[i]))
	}
	return setup, seg
}
