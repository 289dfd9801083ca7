package raid

import (
	"fmt"

	"failstutter/internal/device"
	"failstutter/internal/sim"
)

// SparePool holds hot-spare disks for reconstruction.
type SparePool struct {
	disks []*device.Disk
}

// NewSparePool builds a pool from the given spares.
func NewSparePool(disks ...*device.Disk) *SparePool {
	return &SparePool{disks: disks}
}

// Remaining returns the number of unused spares.
func (sp *SparePool) Remaining() int { return len(sp.disks) }

// take removes and returns a spare, or nil when empty.
func (sp *SparePool) take() *device.Disk {
	if len(sp.disks) == 0 {
		return nil
	}
	d := sp.disks[0]
	sp.disks = sp.disks[1:]
	return d
}

// ReconEvent describes a completed reconstruction.
type ReconEvent struct {
	PairID   int
	Blocks   int64
	Duration sim.Duration
}

// EnableReconstruction arms hot-spare rebuild on every pair of the array:
// when a member disk fails, a spare is taken from the pool and the
// survivor's contents are copied onto it chunk by chunk, sharing the
// survivor's queue with foreground traffic (so rebuild contends with the
// workload, as it does in real arrays — reconstruction is itself a
// performance fault from the workload's point of view). When the copy
// catches up with the pair's append point, the spare replaces the dead
// member.
//
// chunkBlocks sets the copy granularity; onComplete (optional) observes
// finished rebuilds.
func EnableReconstruction(a *Array, pool *SparePool, chunkBlocks int64, onComplete func(ReconEvent)) {
	if chunkBlocks <= 0 {
		panic("raid: chunkBlocks must be positive")
	}
	for _, p := range a.pairs {
		p := p
		arm := func(member *device.Disk) {
			member.OnFail(func() {
				survivor := p.other(member)
				if survivor == nil || survivor.Failed() {
					return // pair is gone; nothing to rebuild from
				}
				spare := pool.take()
				if spare == nil {
					return // administrator stocked too few spares
				}
				start := a.s.Now()
				var copied int64
				var step func()
				step = func() {
					if survivor.Failed() || spare.Failed() {
						return // rebuild source or target died
					}
					if copied >= p.nextBlock {
						// Caught up: promote the spare into the pair.
						p.adopt(member, spare)
						if onComplete != nil {
							onComplete(ReconEvent{PairID: p.ID, Blocks: copied, Duration: a.s.Now() - start})
						}
						return
					}
					n := min(chunkBlocks, p.nextBlock-copied)
					from := copied
					survivor.Read(from, n, func(float64) {
						spare.Write(from, n, func(float64) {
							copied += n
							step()
						})
					})
				}
				step()
			})
		}
		arm(p.A)
		arm(p.B)
	}
}

// other returns the pair member that is not d, or nil if d is not a
// member.
func (p *MirrorPair) other(d *device.Disk) *device.Disk {
	switch d {
	case p.A:
		return p.B
	case p.B:
		return p.A
	default:
		return nil
	}
}

// adopt replaces the dead member with the rebuilt spare and wires the
// spare's failure hook into the pair's accounting.
func (p *MirrorPair) adopt(dead, spare *device.Disk) {
	switch dead {
	case p.A:
		p.A = spare
	case p.B:
		p.B = spare
	default:
		panic(fmt.Sprintf("raid: adopt for non-member disk %q", dead.Name()))
	}
	spare.OnFail(func() { p.diskFailed(spare) })
}
