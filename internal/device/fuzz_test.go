package device

import (
	"encoding/binary"
	"math"
	"testing"

	"failstutter/internal/sim"
)

// fuzzMaxOps bounds the accesses one FuzzDiskServiceTime program runs,
// and fuzzMaxCapacity the disk it builds: small enough that the per-block
// reference stays fast, large enough for zone crossings and long runs.
const (
	fuzzMaxOps      = 64
	fuzzMaxCapacity = 4096
)

// diskProgram reads a FuzzDiskServiceTime program's bytes; an exhausted
// program reads as zeros.
type diskProgram struct{ b []byte }

func (r *diskProgram) more() bool { return len(r.b) > 0 }

func (r *diskProgram) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *diskProgram) u16() int64 { return int64(r.next())<<8 | int64(r.next()) }

func (r *diskProgram) i64() int64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.next()
	}
	return int64(binary.BigEndian.Uint64(buf[:]))
}

// refDisk is the per-block service-time loop with its own sequential
// state, as serviceTime ran before it kept a memo. Zone and remap lookups
// go through the disk under test, whose geometry never changes.
type refDisk struct {
	d         *Disk
	lastBlock int64
	haveLast  bool
}

// inRange reports whether [block, block+blocks) lies on the disk, with
// the sum taken in uint64 so it cannot overflow.
func (r *refDisk) inRange(block, blocks int64) bool {
	return block >= 0 && blocks > 0 && uint64(block)+uint64(blocks) <= uint64(r.d.params.CapacityBlocks)
}

func (r *refDisk) refServiceTime(block, blocks int64) float64 {
	p := r.d.params
	t := 0.0
	if !r.haveLast || block != r.lastBlock+1 {
		t += p.SeekTime
	}
	for i := int64(0); i < blocks; i++ {
		b := block + i
		bw := r.d.ZoneBandwidth(b) * p.AgingFactor
		t += p.BlockBytes / bw
		if r.d.isRemapped(b) {
			t += p.RemapPenalty
		}
	}
	r.lastBlock = block + blocks - 1
	r.haveLast = true
	return t
}

// fuzzDiskParams builds a 1–3 zone disk with aging in (0, 1], remapped
// blocks on or off, from a program's header bytes.
func fuzzDiskParams(r *diskProgram) DiskParams {
	shape := r.next()
	capacity := 1 + r.u16()%fuzzMaxCapacity
	p := DiskParams{
		Name:           "fuzz",
		CapacityBlocks: capacity,
		BlockBytes:     4096,
		SeekTime:       0.011,
		RemapPenalty:   0.022,
		AgingFactor:    (1 + float64(r.next())) / 256,
	}
	split := 0.1 * float64(1+r.next()%9)
	switch 1 + shape%3 {
	case 1:
		p.Zones = []Zone{{1, 5.5e6}}
	case 2:
		p.Zones = []Zone{{split, 5.5e6}, {1 - split, 3.2e6}}
	default:
		p.Zones = []Zone{{0.4, 5.5e6}, {0.35, 4.5e6}, {0.25, 3.2e6}}
	}
	if shape&0x80 != 0 {
		p.RemappedBlocks = 1 + r.u16()%capacity
		p.RemapSeed = uint64(r.next())
	}
	return p
}

// FuzzDiskServiceTime decodes its input as a disk (1–3 zones, aging in
// (0, 1], with or without remapped blocks) and a program of accesses —
// repeats of the previous access, sequential continuations, short
// accesses that may run off the end, and raw 64-bit (block, blocks)
// pairs — and checks every service time bit for bit against the
// per-block reference. Every out-of-range access must panic and leave the
// sequential state alone. The seed corpus under
// testdata/fuzz/FuzzDiskServiceTime replays on every go test run.
func FuzzDiskServiceTime(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &diskProgram{b: prog}
		d := MustDisk(sim.New(), fuzzDiskParams(r))
		ref := &refDisk{d: d}
		capacity := d.params.CapacityBlocks
		block, blocks := int64(0), int64(1)
		for op := 0; op < fuzzMaxOps && r.more(); op++ {
			switch r.next() % 4 {
			case 0: // repeat the previous access
			case 1:
				block, blocks = ref.lastBlock+1, 1+r.u16()%capacity
			case 2:
				block, blocks = r.u16()%(capacity+8), r.u16()%(capacity+8)
			case 3:
				block, blocks = r.i64(), r.i64()
			}
			if !ref.inRange(block, blocks) {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("op %d: access [%d, +%d) on a %d-block disk did not panic", op, block, blocks, capacity)
						}
					}()
					d.serviceTime(block, blocks)
				}()
				continue
			}
			want := ref.refServiceTime(block, blocks)
			if got := d.serviceTime(block, blocks); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: serviceTime(%d, %d) = %v, per-block loop says %v", op, block, blocks, got, want)
			}
		}
	})
}
