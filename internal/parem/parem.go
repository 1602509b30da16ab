// Package parem implements parallel finite-automaton matching in the
// style of the authors' PaREM tool (Memeti & Pllana, "PaREM: A Novel
// Approach for Parallel Regular Expression Matching", CSE 2014), which the
// paper's DNA sequence analysis application is generated from.
//
// The hard part of data-parallel FA matching is that a chunk's initial
// automaton state depends on everything before it. Two exact strategies
// are provided:
//
//   - WarmUp: each worker first replays the ContextLen bytes preceding its
//     chunk to reconstruct the boundary state, then counts within the
//     chunk. Exact whenever the automaton's state provably depends only on
//     bounded trailing context (Aho-Corasick automata and determinized
//     patterns without unbounded repetition).
//
//   - Enumerative: each worker computes, in a single pass over its chunk,
//     the transition summary state -> (end state, match count) for every
//     possible entry state (this is PaREM's per-block transition-function
//     computation); a sequential fold over the summaries then yields the
//     exact global count. Works for arbitrary DFAs at a cost proportional
//     to the number of states.
//
// Both parallel strategies and the Sequential reference produce bit-equal
// match counts; property tests enforce that.
//
// Inputs are abstracted behind Source so that multi-gigabyte virtual
// sequences (dna.Generator) can be streamed without materializing them.
//
// Execute runs one system configuration for real: the host share and
// the device share of the input go through the engine on their own
// worker counts, and the report pairs the real match counts with the
// platform's modeled times.
package parem

import (
	"fmt"
	"runtime"
	"sync"

	"hetopt/internal/automata"
	"hetopt/internal/dna"
)

// Source supplies input bytes by absolute position. Implementations must
// be safe for concurrent FillAt calls.
type Source interface {
	// FillAt copies the bytes at [pos, pos+len(dst)) into dst.
	FillAt(pos int64, dst []byte)
}

// Bytes adapts an in-memory slice to Source.
type Bytes []byte

// FillAt implements Source.
func (b Bytes) FillAt(pos int64, dst []byte) {
	copy(dst, b[pos:])
}

// Section returns a Source exposing src shifted by base: position p of the
// section reads position base+p of src. It is how the offload runtime
// hands each processor its share of the input.
func Section(src Source, base int64) Source {
	return &section{src: src, base: base}
}

type section struct {
	src  Source
	base int64
}

// FillAt implements Source.
func (s *section) FillAt(pos int64, dst []byte) {
	s.src.FillAt(s.base+pos, dst)
}

// Strategy selects the matching algorithm.
type Strategy int

const (
	// Auto picks WarmUp when the automaton advertises bounded context and
	// Enumerative otherwise (Sequential when only one worker is used).
	Auto Strategy = iota
	// Sequential streams the input on one goroutine.
	Sequential
	// WarmUp is the boundary-replay strategy (exact for bounded-context
	// automata).
	WarmUp
	// Enumerative is PaREM's all-states transition-summary strategy
	// (exact for every DFA).
	Enumerative
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Sequential:
		return "sequential"
	case WarmUp:
		return "warmup"
	case Enumerative:
		return "enumerative"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// bufSize is the per-worker streaming buffer size. Chunks larger than
// this are processed in multiple refills.
const bufSize = 256 << 10

// Options configures Count.
type Options struct {
	// Strategy selects the algorithm; Auto by default.
	Strategy Strategy
	// Workers is the number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// ChunksPerWorker controls load-balancing granularity; <= 0 means 4.
	ChunksPerWorker int
	// StartState, when non-nil, is the automaton state entering the
	// input (instead of the DFA's start state). The offload runtime uses
	// it to resume the device share exactly where the host share left
	// off, so matches straddling the distribution boundary are never
	// lost.
	StartState *int32
}

// start resolves the effective entry state.
func (o Options) start(d *automata.DFA) (int32, error) {
	if o.StartState == nil {
		return d.Start, nil
	}
	s := *o.StartState
	if s < 0 || int(s) >= d.NumStates() {
		return 0, fmt.Errorf("parem: start state %d out of range [0,%d)", s, d.NumStates())
	}
	return s, nil
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Result reports a completed count.
type Result struct {
	// Matches is the total match multiplicity over the input.
	Matches uint64
	// Chunks is the number of independently processed chunks.
	Chunks int
	// Strategy is the algorithm actually used (Auto is resolved).
	Strategy Strategy
	// Final is the automaton state after the last input byte; feeding it
	// as StartState of a following section continues matching seamlessly.
	Final int32
}

// Count matches d over an in-memory text.
func Count(d *automata.DFA, text []byte, opt Options) (Result, error) {
	return CountSource(d, Bytes(text), int64(len(text)), opt)
}

// CountSource matches d over total bytes drawn from src.
func CountSource(d *automata.DFA, src Source, total int64, opt Options) (Result, error) {
	if err := d.Validate(); err != nil {
		return Result{}, err
	}
	if total < 0 {
		return Result{}, fmt.Errorf("parem: negative input length %d", total)
	}
	strategy := opt.Strategy
	workers := opt.workers()
	if strategy == Auto {
		switch {
		case workers <= 1 || total < 2*bufSize:
			strategy = Sequential
		case d.ContextLen > 0:
			strategy = WarmUp
		default:
			strategy = Enumerative
		}
	}
	entry, err := opt.start(d)
	if err != nil {
		return Result{}, err
	}
	switch strategy {
	case Sequential:
		return countSequential(d, src, total, entry)
	case WarmUp:
		if d.ContextLen <= 0 {
			return Result{}, fmt.Errorf("parem: warm-up strategy requires a bounded-context automaton (ContextLen > 0)")
		}
		return countWarmUp(d, src, total, entry, workers, opt.chunks(workers, total))
	case Enumerative:
		return countEnumerative(d, src, total, entry, workers, opt.chunks(workers, total))
	default:
		return Result{}, fmt.Errorf("parem: unknown strategy %d", strategy)
	}
}

// chunks picks the chunk count: enough for load balancing, never so many
// that chunks vanish.
func (o Options) chunks(workers int, total int64) int {
	per := o.ChunksPerWorker
	if per <= 0 {
		per = 4
	}
	n := workers * per
	if int64(n) > total {
		n = int(total)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// chunkBounds returns the half-open range of chunk i of n over total.
func chunkBounds(i, n int, total int64) (lo, hi int64) {
	lo = int64(i) * total / int64(n)
	hi = int64(i+1) * total / int64(n)
	return lo, hi
}

func countSequential(d *automata.DFA, src Source, total int64, entry int32) (Result, error) {
	buf := make([]byte, bufSize)
	state := entry
	var matches uint64
	for pos := int64(0); pos < total; {
		n := int64(len(buf))
		if pos+n > total {
			n = total - pos
		}
		src.FillAt(pos, buf[:n])
		var c uint64
		c, state = d.CountFrom(state, buf[:n])
		matches += c
		pos += n
	}
	return Result{Matches: matches, Chunks: 1, Strategy: Sequential, Final: state}, nil
}

func countWarmUp(d *automata.DFA, src Source, total int64, entry int32, workers, chunks int) (Result, error) {
	counts := make([]uint64, chunks)
	finals := make([]int32, chunks)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < chunks; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, bufSize)
			for i := range next {
				lo, hi := chunkBounds(i, chunks, total)
				warmLo := lo - int64(d.ContextLen)
				// When the warm-up window reaches back to the section
				// start, the true entry state is known exactly; otherwise
				// any state converges within ContextLen bytes, so start
				// the replay from the DFA's start state.
				state := d.Start
				if warmLo <= 0 {
					warmLo = 0
					state = entry
				}
				// Replay the warm-up region without counting.
				for pos := warmLo; pos < lo; {
					n := int64(len(buf))
					if pos+n > lo {
						n = lo - pos
					}
					src.FillAt(pos, buf[:n])
					state = d.FinalState(state, buf[:n])
					pos += n
				}
				// Count inside the chunk.
				var c uint64
				for pos := lo; pos < hi; {
					n := int64(len(buf))
					if pos+n > hi {
						n = hi - pos
					}
					src.FillAt(pos, buf[:n])
					var cc uint64
					cc, state = d.CountFrom(state, buf[:n])
					c += cc
					pos += n
				}
				counts[i] = c
				finals[i] = state
			}
		}()
	}
	wg.Wait()
	var totalMatches uint64
	for _, c := range counts {
		totalMatches += c
	}
	final := entry
	if chunks > 0 && total > 0 {
		final = finals[chunks-1]
	}
	return Result{Matches: totalMatches, Chunks: chunks, Strategy: WarmUp, Final: final}, nil
}

// summary is the per-chunk transition summary of the enumerative strategy.
type summary struct {
	end   []int32  // end[s] = state after the chunk when entering in s
	count []uint64 // count[s] = matches inside the chunk when entering in s
}

func countEnumerative(d *automata.DFA, src Source, total int64, entry int32, workers, chunks int) (Result, error) {
	nStates := d.NumStates()
	summaries := make([]summary, chunks)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < chunks; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, bufSize)
			for i := range next {
				lo, hi := chunkBounds(i, chunks, total)
				sum := summary{
					end:   make([]int32, nStates),
					count: make([]uint64, nStates),
				}
				for s := range sum.end {
					sum.end[s] = int32(s)
				}
				// One pass over the chunk, advancing the whole state
				// vector per byte: this is PaREM's per-block transition
				// function computation.
				for pos := lo; pos < hi; {
					n := int64(len(buf))
					if pos+n > hi {
						n = hi - pos
					}
					src.FillAt(pos, buf[:n])
					for _, b := range buf[:n] {
						stepVector(d, &sum, b)
					}
					pos += n
				}
				summaries[i] = sum
			}
		}()
	}
	wg.Wait()
	// Sequential fold of the summaries.
	state := entry
	var matches uint64
	for i := range summaries {
		matches += summaries[i].count[state]
		state = summaries[i].end[state]
	}
	return Result{Matches: matches, Chunks: chunks, Strategy: Enumerative, Final: state}, nil
}

// stepVector advances every entry of the summary's state vector by one
// input byte, accumulating per-entry match counts. Separator bytes reset
// every lane to the start state without counting, mirroring
// DFA.CountFrom's semantics exactly.
func stepVector(d *automata.DFA, sum *summary, b byte) {
	code, ok := dna.EncodeByte(b)
	if !ok {
		for s := range sum.end {
			sum.end[s] = d.Start
		}
		return
	}
	for s := range sum.end {
		ns := d.Next[sum.end[s]][code]
		sum.end[s] = ns
		sum.count[s] += uint64(d.Out[ns])
	}
}
