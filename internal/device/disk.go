// Package device implements simulated hardware components exhibiting the
// behaviours surveyed in Section 2 of the paper: multi-zone disks with
// bad-block remapping and aged on-disk layouts, network links and switches
// with bounded buffers, head-of-line blocking and route unfairness, and
// CPUs with fault-masked caches and interference-sensitive memory systems.
//
// Disks, links and switches run on the internal/sim discrete-event kernel;
// CPU behaviour is an analytic model (deterministic run-time functions),
// which is all the cache/interference experiments require.
package device

import (
	"fmt"
	"math"

	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// Zone describes one radial zone of a disk: a fraction of the capacity
// served at a given sequential bandwidth. Outer zones come first and are
// faster, per the multi-zone measurements cited by the paper (factor of
// two across zones).
type Zone struct {
	// CapacityFrac is this zone's share of total capacity, in (0, 1].
	CapacityFrac float64
	// Bandwidth is the sequential transfer rate within the zone, bytes/s.
	Bandwidth float64
}

// DiskParams configures a simulated disk.
type DiskParams struct {
	Name string
	// CapacityBlocks is the number of addressable blocks.
	CapacityBlocks int64
	// BlockBytes is the size of one block.
	BlockBytes float64
	// Zones lists the zone map, outermost first. CapacityFracs must sum to
	// 1 (within 1e-9). A single zone models a constant-bandwidth disk.
	Zones []Zone
	// SeekTime is the cost of a non-sequential access, seconds.
	SeekTime float64
	// RemappedBlocks is the number of blocks the drive has transparently
	// remapped; accessing one costs RemapPenalty. The remapped subset is a
	// deterministic pseudo-random function of RemapSeed.
	RemappedBlocks int64
	RemapPenalty   float64
	RemapSeed      uint64
	// AgingFactor scales effective bandwidth for aged file-system layouts:
	// 1 is a fresh layout; the survey reports factors down to 0.5.
	AgingFactor float64
}

// HawkParams returns parameters modelled on the paper's 5400-RPM Seagate
// Hawk example: 5.5 MB/s sequential reads on a healthy drive.
func HawkParams(name string) DiskParams {
	return DiskParams{
		Name:           name,
		CapacityBlocks: 1 << 20, // 1 Mi blocks of 4 KiB ~ 4 GiB
		BlockBytes:     4096,
		Zones: []Zone{
			{CapacityFrac: 0.4, Bandwidth: 5.5e6},
			{CapacityFrac: 0.35, Bandwidth: 4.5e6},
			{CapacityFrac: 0.25, Bandwidth: 3.2e6},
		},
		SeekTime:     0.011, // ~11 ms average seek+rotation
		RemapPenalty: 0.022, // remap = extra seek out and back
		AgingFactor:  1,
	}
}

// Disk is a simulated disk drive. Requests are serviced FCFS by an
// underlying station whose work units are seconds of nominal service time,
// so performance faults (multiplier < 1) stretch service uniformly while
// zone geometry, seeks, remaps and aging shape each request's nominal cost.
type Disk struct {
	params  DiskParams
	station *sim.Station
	comp    *faults.Composite
	s       *sim.Simulator

	zoneStartBlock []int64 // first block of each zone
	lastBlock      int64   // for sequential-access detection
	haveLast       bool
	memo           serviceMemo // last single-zone service time

	bytesDone float64
	reads     uint64
	writes    uint64
	onFail    []func()

	tracer *trace.Tracer
	track  trace.TrackID
}

// SetMultiplier forwards a fault factor to the underlying station; Disk
// itself is the faults.Target so failure callbacks can be observed.
func (d *Disk) SetMultiplier(m float64) { d.station.SetMultiplier(m) }

// NewDisk validates params and builds the disk.
func NewDisk(s *sim.Simulator, p DiskParams) (*Disk, error) {
	if p.CapacityBlocks <= 0 || p.BlockBytes <= 0 {
		return nil, fmt.Errorf("device: disk %q needs positive capacity and block size", p.Name)
	}
	if len(p.Zones) == 0 {
		return nil, fmt.Errorf("device: disk %q has no zones", p.Name)
	}
	sum := 0.0
	for i, z := range p.Zones {
		if z.CapacityFrac <= 0 || z.Bandwidth <= 0 {
			return nil, fmt.Errorf("device: disk %q zone %d invalid", p.Name, i)
		}
		sum += z.CapacityFrac
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("device: disk %q zone fractions sum to %v, want 1", p.Name, sum)
	}
	if p.AgingFactor <= 0 || p.AgingFactor > 1 {
		return nil, fmt.Errorf("device: disk %q aging factor %v outside (0, 1]", p.Name, p.AgingFactor)
	}
	if p.RemappedBlocks < 0 || p.RemappedBlocks > p.CapacityBlocks {
		return nil, fmt.Errorf("device: disk %q remapped blocks %d out of range", p.Name, p.RemappedBlocks)
	}
	d := &Disk{
		params:  p,
		station: sim.NewStation(s, p.Name, 1), // units: seconds of service
		s:       s,
	}
	d.comp = faults.NewComposite(d)
	d.zoneStartBlock = make([]int64, len(p.Zones))
	start := int64(0)
	for i, z := range p.Zones {
		d.zoneStartBlock[i] = start
		start += int64(z.CapacityFrac * float64(p.CapacityBlocks))
	}
	return d, nil
}

// MustDisk is NewDisk for static configurations known to be valid.
func MustDisk(s *sim.Simulator, p DiskParams) *Disk {
	d, err := NewDisk(s, p)
	if err != nil {
		panic(err)
	}
	return d
}

// Params returns the construction parameters.
func (d *Disk) Params() DiskParams { return d.params }

// Composite exposes the fault-composition target for injectors.
func (d *Disk) Composite() *faults.Composite { return d.comp }

// Name returns the disk's label.
func (d *Disk) Name() string { return d.params.Name }

// SetTracer attaches a span tracer. The disk's access spans and its
// station's queue/service spans share one track (the disk name), so a
// disk-level "write" visually contains the station-level "service" slice
// beneath it in the exported trace.
func (d *Disk) SetTracer(t *trace.Tracer) {
	d.tracer = t
	if t != nil {
		d.track = t.Track(d.params.Name)
	}
	d.station.SetTracer(t)
}

// Failed reports whether the disk has absolutely failed.
func (d *Disk) Failed() bool { return d.station.Failed() }

// Fail fail-stops the disk, abandoning queued requests, and runs any
// registered failure callbacks exactly once.
func (d *Disk) Fail() {
	if d.station.Failed() {
		return
	}
	d.station.Fail()
	for _, fn := range d.onFail {
		fn()
	}
}

// OnFail registers a callback invoked when the disk absolutely fails.
func (d *Disk) OnFail(fn func()) { d.onFail = append(d.onFail, fn) }

// BytesCompleted returns the total bytes transferred so far.
func (d *Disk) BytesCompleted() float64 { return d.bytesDone }

// Reads and Writes return completed request counts.
func (d *Disk) Reads() uint64  { return d.reads }
func (d *Disk) Writes() uint64 { return d.writes }

// QueueLen returns the number of requests queued behind the one in
// service.
func (d *Disk) QueueLen() int { return d.station.QueueLen() }

// BusyTime returns cumulative seconds spent actively serving requests.
// Together with BytesCompleted it yields the disk's true service speed,
// independent of how much demand it received — the signal a detector
// needs to avoid flagging an idle disk as slow.
func (d *Disk) BusyTime() float64 { return d.station.BusyTime() }

// Pending returns the number of requests accepted but not yet completed,
// including the one in service.
func (d *Disk) Pending() int {
	n := d.station.QueueLen()
	if d.station.InService() != nil {
		n++
	}
	return n
}

// zoneOf returns the index of the zone containing block.
func (d *Disk) zoneOf(block int64) int {
	for i := len(d.zoneStartBlock) - 1; i >= 0; i-- {
		if block >= d.zoneStartBlock[i] {
			return i
		}
	}
	return 0
}

// ZoneBandwidth returns the nominal sequential bandwidth at the given
// block, before aging and fault modulation.
func (d *Disk) ZoneBandwidth(block int64) float64 {
	return d.params.Zones[d.zoneOf(block)].Bandwidth
}

// isRemapped reports whether the drive transparently remapped block. The
// subset is a deterministic hash-based sample of the requested density, so
// identical drives with different seeds remap different blocks — invisible
// to the file system, exactly as the paper describes.
func (d *Disk) isRemapped(block int64) bool {
	if d.params.RemappedBlocks == 0 {
		return false
	}
	h := uint64(block)*0x9e3779b97f4a7c15 + d.params.RemapSeed
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int64(h%uint64(d.params.CapacityBlocks)) < d.params.RemappedBlocks
}

// serviceMemo holds the last single-zone access's service time, keyed by
// everything the per-block loop reads on a disk without remapped blocks:
// the zone, the length and whether the seek was added first. A hit returns
// the bits the same float additions in the same order produced. The zero
// memo never hits: no access has zero blocks.
type serviceMemo struct {
	zone   int
	blocks int64
	seek   bool
	t      float64
}

// serviceTime computes the nominal service seconds for an access.
func (d *Disk) serviceTime(block int64, blocks int64) float64 {
	if block < 0 || blocks <= 0 || blocks > d.params.CapacityBlocks-block {
		panic(fmt.Sprintf("device: disk %q access [%d, +%d) out of range", d.params.Name, block, blocks))
	}
	seek := !d.haveLast || block != d.lastBlock+1
	d.lastBlock = block + blocks - 1
	d.haveLast = true
	zone := d.zoneOf(block)
	memoable := d.params.RemappedBlocks == 0 && zone == d.zoneOf(block+blocks-1)
	if m := d.memo; memoable && m.zone == zone && m.blocks == blocks && m.seek == seek {
		return m.t
	}
	t := 0.0
	if seek {
		t += d.params.SeekTime
	}
	for i := int64(0); i < blocks; i++ {
		b := block + i
		bw := d.ZoneBandwidth(b) * d.params.AgingFactor
		t += d.params.BlockBytes / bw
		if d.isRemapped(b) {
			t += d.params.RemapPenalty
		}
	}
	if memoable {
		d.memo = serviceMemo{zone: zone, blocks: blocks, seek: seek, t: t}
	}
	return t
}

// Access submits a transfer of `blocks` blocks starting at `block`. The
// callback, if non-nil, receives the request latency when service
// completes. isWrite only affects accounting; the timing model is
// symmetric.
func (d *Disk) Access(block, blocks int64, isWrite bool, onDone func(latency float64)) {
	d.AccessSpan(0, block, blocks, isWrite, onDone)
}

// AccessSpan is Access with a caller-level parent span: the disk records
// an operation span (named "read" or "write", tagged with the block
// number) parented to the caller's span, and the station's queue/service
// spans parent to the operation span in turn.
func (d *Disk) AccessSpan(parent trace.SpanID, block, blocks int64, isWrite bool, onDone func(latency float64)) {
	size := d.serviceTime(block, blocks)
	bytes := float64(blocks) * d.params.BlockBytes
	var span trace.SpanID
	if d.tracer != nil {
		name := "read"
		if isWrite {
			name = "write"
		}
		span = d.tracer.BeginArg(d.track, name, "disk", parent, d.s.Now(), block)
	}
	r := &sim.Request{Size: size, ParentSpan: span, OnDone: func(r *sim.Request) {
		d.bytesDone += bytes
		if isWrite {
			d.writes++
		} else {
			d.reads++
		}
		if d.tracer != nil {
			d.tracer.End(span, d.s.Now())
		}
		if onDone != nil {
			onDone(r.Latency())
		}
	}}
	d.station.Submit(r)
}

// Read submits a read request.
func (d *Disk) Read(block, blocks int64, onDone func(latency float64)) {
	d.Access(block, blocks, false, onDone)
}

// Write submits a write request.
func (d *Disk) Write(block, blocks int64, onDone func(latency float64)) {
	d.Access(block, blocks, true, onDone)
}

// SequentialReadBandwidth measures the disk's delivered bandwidth by
// reading `blocks` blocks sequentially from `start` and running the
// simulation until completion. It is the microbenchmark the paper's disk
// survey uses ("a simple bandwidth experiment shows differing performance
// across drives"). The simulator must be otherwise idle.
func (d *Disk) SequentialReadBandwidth(start, blocks int64) float64 {
	begin := d.s.Now()
	done := false
	var finish sim.Time
	d.Read(start, blocks, func(float64) {
		done = true
		finish = d.s.Now()
		// Halt the run loop so open-ended injectors cannot keep the
		// benchmark's event queue alive forever.
		d.s.Stop()
	})
	d.s.Run()
	if !done {
		return 0 // disk failed mid-benchmark
	}
	elapsed := finish - begin
	if elapsed <= 0 {
		return math.Inf(1)
	}
	return float64(blocks) * d.params.BlockBytes / elapsed
}
