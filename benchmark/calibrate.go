package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is shared, and its speed moves by a
// quarter for minutes at a time — for all four workloads in unison, while
// nothing in the repository changes (AA.md has the measurements). No
// statistic over one run's segments can take that out, so each run
// measures the host beside the workload: a fixed kernel owned by the
// benchmark, independent of the program under test, run on every CPU at
// once after every timed segment (about 20 ms each time). It has two
// phases, because the host's slow spells slow memory much more than
// arithmetic and the workloads sit between the two: a xorshift chain
// (integer pipeline only), then the same chain indexing random reads over
// a table far larger than the private caches (shared cache and memory).
// One reading of the host's slowness is the geometric mean of the two
// phases' times over their times on the reference host: this 2-vCPU
// 2.1 GHz Xeon guest in its quiet spells. A run divides its times by the
// median of its readings.
const (
	calTableWords = 1 << 21 // 8 MiB of uint32
	calALUIters   = 5 << 20 // per CPU
	calMemIters   = 2 << 20 // per CPU
	refALU        = 9800 * time.Microsecond
	refMem        = 13500 * time.Microsecond
)

var calTable = func() []uint32 {
	t := make([]uint32, calTableWords)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calSink keeps the kernel's results alive; one slot per CPU.
var calSink [256]uint32

// calPhase runs one phase of the kernel on every CPU and returns its wall
// time.
func calPhase(mem bool) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, sum := uint32(w+1)*2654435761, uint32(0)
			if mem {
				for i := 0; i < calMemIters; i++ {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					sum += calTable[x&(calTableWords-1)]
				}
			} else {
				for i := 0; i < calALUIters; i++ {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					sum += x
				}
			}
			calSink[w%len(calSink)] = sum
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// hostSlowness takes one reading of the host: 1 on the reference host,
// 1.25 on a host (or in a spell) where the kernel takes a quarter longer.
func hostSlowness() float64 {
	alu, mem := calPhase(false), calPhase(true)
	return math.Sqrt(alu.Seconds() / refALU.Seconds() * mem.Seconds() / refMem.Seconds())
}
