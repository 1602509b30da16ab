package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference machine is two vCPUs of a shared VM whose speed drifts
// by up to 2x over tens of minutes as other tenants come and go: ten
// runs of the same code spread over half an hour read 15-45% apart,
// while runs made back to back agree within a few percent. So the timed
// phase also times a fixed reference kernel that shares no code with
// the service, and every end-to-end time is reported at a nominal
// machine speed: multiplied by refNominalNS / (the kernel's median time
// in the run). A change to the service moves its times and not the
// kernel's. The measured values are printed too.
//
// The kernel has a user-space half (dependent loads from a 4 MiB table,
// so cache and memory contention slow it) and a kernel half (round
// trips through a unix socket pair, so contention in system calls and
// the network stack slows it). On the reference machine the user-space
// half alone tracks the compute-bound workloads and the kernel half
// alone the cluster and proof workloads; the two together leave a
// spread of 5-12% over ten runs where the measured figures spread
// 15-26%.

// refNominalNS is the nominal speed: the kernel's typical time on the
// reference machine under the benchmark's load.
const refNominalNS = 250e3

// refPeriod and refBatch set how often the timed phase samples the
// kernel: 4 runs (about 1 ms) every 100 ms, 1% of one CPU.
const (
	refPeriod = 100 * time.Millisecond
	refBatch  = 4
)

// refTable is the user-space half's read-only working set.
var refTable = func() []uint64 {
	tab := make([]uint64, 1<<19)
	for i := range tab {
		tab[i] = mix64(uint64(i))
	}
	return tab
}()

var refSink uint64

// speedProbe times the reference kernel; it owns the socket pair.
type speedProbe struct {
	fds [2]int
	buf [256]byte
}

func newSpeedProbe() (*speedProbe, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, fmt.Errorf("reference kernel socket pair: %w", err)
	}
	return &speedProbe{fds: fds}, nil
}

func (p *speedProbe) close() {
	syscall.Close(p.fds[0])
	syscall.Close(p.fds[1])
}

// kernel runs the reference work once.
func (p *speedProbe) kernel() error {
	h := uint64(14695981039346656037)
	for i := 0; i < 1<<14; i++ {
		h ^= refTable[h&uint64(len(refTable)-1)]
		h *= 1099511628211
	}
	refSink += h
	for i := 0; i < 64; i++ {
		if _, err := syscall.Write(p.fds[0], p.buf[:]); err != nil {
			return err
		}
		for n := 0; n < len(p.buf); {
			k, err := syscall.Read(p.fds[1], p.buf[n:])
			if err != nil {
				return err
			}
			n += k
		}
	}
	return nil
}

// sample times n runs of the kernel by the calling thread's CPU clock
// (user and system time), so time the thread spends preempted by the
// benchmark's own goroutines does not count. It returns nil if the
// kernel or the clock fails.
func (p *speedProbe) sample(n int) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]float64, n)
	for i := range out {
		t0, ok0 := threadCPU()
		err := p.kernel()
		t1, ok1 := threadCPU()
		if err != nil || !ok0 || !ok1 {
			return nil
		}
		out[i] = float64(t1 - t0)
	}
	return out
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU is the calling thread's CPU time.
func threadCPU() (time.Duration, bool) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}
