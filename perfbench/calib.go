package main

import (
	"sort"
	"time"
)

// The host this benchmark was tuned on (a 2-vCPU KVM guest) has slow phases
// lasting seconds in which the simulator runs up to ~1.6x slower while a
// plain arithmetic loop does not slow at all. A fixed discrete-event kernel
// written here, in the benchmark's own code, slows by a similar factor, so
// every timed unit of work is paired with a kernel pass run right beside it
// and reported at the kernel's reference speed. The kernel never changes
// with the program under test, so a slower program still reads slower.

// kernelRef is the reference kernel pass time: a normalized duration reads
// as the time the work would take on a host where one pass takes kernelRef.
const kernelRef = 350 * time.Microsecond

const (
	kernelWorkers = 64
	kernelSteps   = 3000
)

type kevent struct{ at, who int32 }

type kworker struct{ state, rem, done int32 }

// kernel is the calibration workload: a binary heap of events, a branchy
// per-worker state machine and scattered reads over a small table, the same
// mix of work as the engine's event loop. It allocates nothing per pass.
type kernel struct {
	heap []kevent
	ws   []kworker
	sink int
}

func newKernel() *kernel {
	return &kernel{heap: make([]kevent, 0, kernelWorkers), ws: make([]kworker, kernelWorkers)}
}

// pass runs the kernel once and returns its duration.
func (k *kernel) pass() time.Duration {
	t0 := time.Now()
	k.sink += k.simulate()
	return time.Since(t0)
}

func (k *kernel) simulate() int {
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() int32 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int32(x & 0x7fffffff)
	}
	clear(k.ws)
	k.heap = k.heap[:0]
	for i := 0; i < kernelWorkers; i++ {
		k.push(kevent{at: rnd() % 50, who: int32(i)})
	}
	total := 0
	for s := 0; s < kernelSteps; s++ {
		e := k.pop()
		w := &k.ws[e.who]
		switch w.state {
		case 0:
			if rnd()%3 == 0 {
				w.state = 2
			} else {
				w.state, w.rem = 1, 1+rnd()%9
			}
		case 1:
			if w.rem--; w.rem == 0 {
				w.done++
				w.state = 0
				total++
			}
		default:
			w.state = 0
		}
		best := int32(-1)
		for c := 0; c < 8; c++ {
			q := rnd() % kernelWorkers
			if k.ws[q].state == 0 && (best < 0 || k.ws[q].done < k.ws[best].done) {
				best = q
			}
		}
		if best >= 0 {
			total += int(best & 1)
		}
		k.push(kevent{at: e.at + 1 + rnd()%20, who: e.who})
	}
	return total
}

func (k *kernel) push(e kevent) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *kernel) pop() kevent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, m := 2*i+1, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if r := l + 1; r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.heap = h
	return top
}

// sample is the median of three passes: one speed estimate, robust to an
// interrupt landing in a single pass.
func (k *kernel) sample() time.Duration { return k.median(3) }

// median returns the median kernel pass time over n passes.
func (k *kernel) median(n int) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = k.pass()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}

// launchRef is the reference time to start true(1) and wait for it to exit.
// Short work in a fresh process (a sweep's set-up pass) slows in the host's
// slow phases by more than the kernel does, and as much as starting true(1)
// does, a program that never changes with the program under test.
// Such work is timed beside launches of true and reported at launchRef.
const launchRef = 900 * time.Microsecond

// normalize scales a duration measured while kernel passes took k to the
// reference speed.
func normalize(d, k time.Duration) time.Duration { return scaleTo(d, k, kernelRef) }

func scaleTo(d, sample, ref time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(ref) / float64(sample))
}
