package machine

import "fmt"

// Placement describes how a number of software threads lands on the
// hardware after applying an affinity strategy.
type Placement struct {
	// Threads is the number of software threads placed.
	Threads int
	// CoresUsed is the number of distinct physical cores that received at
	// least one thread.
	CoresUsed int
	// SocketsUsed is the number of distinct packages that received at
	// least one thread.
	SocketsUsed int
	// ThreadsOnCore[i] is the number of cores carrying exactly i+1
	// threads; the slice has length Processor.ThreadsPerCore.
	ThreadsOnCore []int
	// OSManaged is true when the placement is delegated to the operating
	// system (AffinityNone): the occupancy fields then describe the
	// expected steady-state layout rather than a pinned one.
	OSManaged bool
}

// MaxShare returns the largest number of threads sharing one core.
func (pl Placement) MaxShare() int {
	for i := len(pl.ThreadsOnCore) - 1; i >= 0; i-- {
		if pl.ThreadsOnCore[i] > 0 {
			return i + 1
		}
	}
	return 0
}

// Place computes the placement of n software threads under affinity a.
//
// Semantics follow Intel's KMP_AFFINITY types:
//
//   - compact fills all hardware threads of a core before using the next
//     core, and all cores of a socket before the next socket;
//   - scatter round-robins threads across sockets first, then cores, so
//     the maximum number of cores participates and per-core sharing is as
//     even as possible;
//   - balanced (device) spreads across cores like scatter but keeps
//     consecutive thread ids adjacent; occupancy-wise it matches scatter
//     on a single-socket device, which is how it is modeled here;
//   - none (host) lets the OS schedule; the expected layout equals
//     scatter, with OSManaged set so the performance model can apply its
//     migration penalty.
//
// Threads beyond the processor's capacity oversubscribe: the placement
// wraps around, so MaxShare can exceed ThreadsPerCore only when n exceeds
// TotalThreads. Place returns an error when n is not positive or the
// affinity is unsupported by the processor.
func Place(p *Processor, n int, a Affinity) (Placement, error) {
	if err := p.Validate(); err != nil {
		return Placement{}, err
	}
	if n <= 0 {
		return Placement{}, fmt.Errorf("machine: thread count must be positive, got %d", n)
	}
	if !p.SupportsAffinity(a) {
		return Placement{}, fmt.Errorf("machine: %s does not support affinity %q", p.Name, a)
	}

	cores := p.TotalCores()
	tpc := p.ThreadsPerCore
	capacity := cores * tpc

	// perCore[i] counts software threads on physical core i. Cores are
	// numbered socket-major: cores [0, CoresPerSocket) sit on socket 0,
	// etc. Reserved cores are removed from the end (the Phi's OS core).
	perCore := make([]int, cores)

	effective := a
	osManaged := false
	if a == AffinityNone {
		effective = AffinityScatter
		osManaged = true
	}
	if a == AffinityBalanced {
		effective = AffinityScatter
	}

	switch effective {
	case AffinityCompact:
		for t := 0; t < n; t++ {
			slot := t % capacity
			perCore[slot/tpc]++
		}
	case AffinityScatter:
		for t := 0; t < n; t++ {
			slot := t % capacity
			idx := slot % cores
			// Round-robin across sockets: thread k of an SMT layer goes
			// to socket k%Sockets, core (k/Sockets) within that socket.
			socket := idx % p.Sockets
			coreInSocket := idx / p.Sockets
			core := socket*p.CoresPerSocket + coreInSocket
			if core >= cores {
				// Reserved cores are cut from the end of the numbering;
				// wrap onto the first cores instead.
				core = (core - cores) % cores
			}
			perCore[core]++
		}
	default:
		return Placement{}, fmt.Errorf("machine: unhandled affinity %q", a)
	}

	pl := Placement{
		Threads:       n,
		ThreadsOnCore: make([]int, max(tpc, ceilDiv(n, cores))),
		OSManaged:     osManaged,
	}
	socketsSeen := make(map[int]bool)
	for core, cnt := range perCore {
		if cnt == 0 {
			continue
		}
		pl.CoresUsed++
		socketsSeen[core/p.CoresPerSocket] = true
		if cnt > len(pl.ThreadsOnCore) {
			grown := make([]int, cnt)
			copy(grown, pl.ThreadsOnCore)
			pl.ThreadsOnCore = grown
		}
		pl.ThreadsOnCore[cnt-1]++
	}
	pl.SocketsUsed = len(socketsSeen)
	return pl, nil
}

func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
