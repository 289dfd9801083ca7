package detect

import (
	"fmt"

	"failstutter/internal/spec"
)

// This file is the parallel fleet-sweep engine: the multi-core path
// through a PeerSet monitoring sweep. A sweep has two phases — observe
// every member, then classify every member — and both are embarrassingly
// parallel once the shared median band is taken off the inner loop:
//
//   - SweepObserve partitions the fleet's members into contiguous dense
//     index ranges, one per worker, and runs the per-member observe on
//     each; a member's window and cached median are member-private, so
//     workers touch disjoint state. The band is only marked dirty.
//   - SweepVerdicts refills the band once on the caller — the same single
//     expected-O(P) select a per-id Verdict would run — then fans the
//     read-only exclude-one classification across the same index ranges,
//     counting flags in per-worker counters that are reduced in global
//     member order after the barrier, so the flag count never depends on
//     goroutine timing.
//
// Byte-determinism therefore holds at every worker count: verdicts are
// pure functions of member state and the band, whose order statistics
// are unique, and every reduction runs in dense member order.

// Parallel abstracts the worker pool the sweep engine fans across:
// Do(fn) must run fn(w) once for each worker w in [0, Workers()) and
// return when all have finished, imposing no ordering between workers.
// sim.WorkerPool implements it; Serial is the inline fallback.
type Parallel interface {
	Workers() int
	Do(fn func(worker int))
}

// Serial is the degenerate Parallel executor: one worker, run inline on
// the caller. A nil Parallel is treated as Serial everywhere.
var Serial Parallel = serialExec{}

type serialExec struct{}

func (serialExec) Workers() int           { return 1 }
func (serialExec) Do(fn func(worker int)) { fn(0) }

// sweepChunk returns worker w's dense index range [lo, hi): n members
// split into workers contiguous chunks, sized within one of each other.
func sweepChunk(n, workers, w int) (lo, hi int) {
	return n * w / workers, n * (w + 1) / workers
}

// Register adds the member if it is new and returns its dense sweep
// index — its position in registration order, the global member order
// the sweep engine partitions and reduces in. Registering every member
// up front lets SweepObserve run with no map lookups and no membership
// mutation inside the parallel region.
func (p *PeerSet) Register(id string) int {
	if m := p.members[id]; m != nil {
		return int(m.idx)
	}
	return int(p.addMember(id).idx)
}

// MemberCount returns the number of registered members — the length the
// sweep engine's rates and verdicts slices must have.
func (p *PeerSet) MemberCount() int { return len(p.list) }

// SweepObserve records one rate sample per member — rates[i] is dense
// member i's sample, all at the same timestamp — fanning the per-member
// window updates across the pool's workers. Equivalent to calling
// Observe for every member in dense order at the same now, and
// byte-identical at any worker count.
func (p *PeerSet) SweepObserve(par Parallel, now float64, rates []float64) {
	n := len(p.list)
	if len(rates) != n {
		panic(fmt.Sprintf("detect: SweepObserve got %d rates for %d members", len(rates), n))
	}
	if n == 0 {
		return
	}
	if par == nil {
		par = Serial
	}
	p.medsDirty = true
	workers := par.Workers()
	par.Do(func(w int) {
		lo, hi := sweepChunk(n, workers, w)
		for i := lo; i < hi; i++ {
			p.list[i].observe(now, rates[i])
		}
	})
}

// SweepVerdicts classifies every member as of now, writing dense member
// i's verdict to out[i], and returns the number of non-nominal members.
// A stale band is refilled once, before the fan-out; the exclude-one
// classification then runs read-only across the workers, and the
// per-worker flag counters are reduced in global member order, so the
// count and every byte of out are identical at any worker count.
func (p *PeerSet) SweepVerdicts(par Parallel, now float64, out []spec.Verdict) int {
	n := len(p.list)
	if len(out) != n {
		panic(fmt.Sprintf("detect: SweepVerdicts got %d verdict slots for %d members", len(out), n))
	}
	if n == 0 {
		return 0
	}
	if par == nil {
		par = Serial
	}
	band := p.medianBand()
	workers := par.Workers()
	if cap(p.flagCounts) < workers {
		p.flagCounts = make([]int, workers)
	}
	flags := p.flagCounts[:workers]
	par.Do(func(w int) {
		count := 0
		lo, hi := sweepChunk(n, workers, w)
		for i := lo; i < hi; i++ {
			m := p.list[i]
			v, done := p.quickVerdict(m, now)
			if !done {
				v = p.classify(band, m)
			}
			out[i] = v
			if v != spec.Nominal {
				count++
			}
		}
		flags[w] = count
	})
	total := 0
	for _, c := range flags {
		total += c
	}
	return total
}
