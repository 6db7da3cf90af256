package main

import (
	"runtime"
	"runtime/debug"
	"sort"
)

// A shared host can change speed by up to a factor of two over tens of
// seconds, in CPU time as much as in wall time (README.md, "Host times").
// So a run times a fixed reference kernel before its first job and after
// every job, and scales its CPU times by refPassS over the median reference
// pass of the run: run_s and setup_s read as CPU seconds on a host on which
// one reference pass takes refPassS. A run's median pass moves with the
// host's speed over the run, not with the program's code.

// refPassS is the reference pass time the run's CPU times are scaled to,
// near the pass's CPU time on the host the baseline was taken on. It is a
// fixed constant: changing it rescales every time metric.
const refPassS = 0.1

// refPasses is how many reference passes one sample times.
const refPasses = 3

// refSample returns the mean CPU seconds of refPasses passes of the
// reference kernel. The parent process, whose heap stays small, takes the
// samples between the child jobs, on one P and with the collector off: a
// collection cycle or a goroutine handoff across Ps spends CPU time waiting
// on other threads, which grows when other processes hold the cores and
// would make the sample track contention instead of the host's speed.
func refSample() float64 {
	runtime.GC()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	c := cpuSeconds()
	for range refPasses {
		refSink += refKernel()
	}
	d := cpuSeconds() - c
	debug.SetGCPercent(gc)
	runtime.GOMAXPROCS(procs)
	return d / refPasses
}

// refSink keeps refKernel's checksum live.
var refSink uint64

// refNode is the reference kernel's heap object.
type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

// refKernel is a fixed amount of work that uses the host the way a
// simulation job does: small allocations, map inserts and lookups,
// sorting, and goroutine handoffs over unbuffered channels. It calls no repository code, so no change to the repository
// changes its cost, and it must itself never change: its cost is the unit
// of run_s and setup_s. It returns a checksum so the work is not optimized
// away.
func refKernel() uint64 {
	const (
		entries  = 1 << 16
		lookups  = 1 << 19
		handoffs = 1 << 15
	)
	var sum uint64
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]*refNode)
	var head *refNode
	for range entries {
		n := &refNode{key: next(), next: head}
		head = n
		m[n.key&(entries*4-1)] = n
	}
	for range lookups {
		if n, ok := m[next()&(entries*4-1)]; ok {
			sum += n.key
		}
	}
	keys := make([]uint64, 0, entries)
	for n := head; n != nil; n = n.next {
		keys = append(keys, n.key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sum += keys[len(keys)/2]
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := uint64(0)
	for range handoffs {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	return sum + v
}
