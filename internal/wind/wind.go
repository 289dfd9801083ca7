// Package wind implements a network storage volume in the spirit of the
// Wisconsin Network Disks (WiND) project the paper names as its vehicle
// for fail-stutter-tolerant storage: "we are investigating the adaptive
// software techniques that we believe are central to building robust and
// manageable storage systems" (Section 5).
//
// A Volume stripes replicated blocks over storage nodes reached through
// simulated network links. Unlike internal/raid — whose adaptive striper
// balances implicitly through work-conserving pulls — the volume closes
// the paper's full loop explicitly: a core.Controller probes every node,
// classifies it against its performance specification, publishes
// persistent state to the registry, and the placement policy *consults
// that registry*, diverting writes away from performance-faulty nodes and
// hedging reads around them. Absolute faults divert permanently;
// performance faults divert until the node recovers.
package wind

import (
	"fmt"

	"failstutter/internal/core"
	"failstutter/internal/detect"
	"failstutter/internal/device"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
)

// NodeParams configures one storage node: a disk behind a network link.
type NodeParams struct {
	Disk device.DiskParams
	// LinkBandwidth is the node's network bandwidth, bytes/s.
	LinkBandwidth float64
	// LinkLatency is the one-way network latency, seconds.
	LinkLatency sim.Duration
}

// Node is a storage brick: requests traverse the link, then the disk.
type Node struct {
	index int
	disk  *device.Disk
	link  *device.Link
}

// Disk exposes the node's disk (fault-injection target).
func (n *Node) Disk() *device.Disk { return n.disk }

// Link exposes the node's link (fault-injection target).
func (n *Node) Link() *device.Link { return n.link }

// write sends one block over the link and onto the disk.
func (n *Node) write(block int64, blockBytes float64, onDone func()) {
	n.link.Send(blockBytes, func(float64) {
		n.disk.Write(block, 1, func(float64) {
			if onDone != nil {
				onDone()
			}
		})
	})
}

// read fetches one block: request over the link (small), disk access,
// response over the link (full block).
func (n *Node) read(block int64, blockBytes float64, onDone func()) {
	n.link.Send(64, func(float64) {
		n.disk.Read(block, 1, func(float64) {
			n.link.Send(blockBytes, func(float64) {
				if onDone != nil {
					onDone()
				}
			})
		})
	})
}

// Policy selects how placement reacts to published component state.
type Policy int

const (
	// Static ignores the registry: blocks always land on their home
	// nodes, the fail-stop design.
	Static Policy = iota
	// Adaptive consults the registry: writes divert from nodes published
	// as performance- or absolutely-faulty, and reads hedge.
	Adaptive
)

// String returns the policy name.
func (p Policy) String() string {
	if p == Adaptive {
		return "adaptive"
	}
	return "static"
}

// VolumeParams configures a volume.
type VolumeParams struct {
	// Nodes is the number of storage nodes (>= Replication+1).
	Nodes int
	// Replication is the copies per block (>= 1).
	Replication int
	// BlockBytes is the logical block size.
	BlockBytes float64
	// Policy selects static or adaptive placement.
	Policy Policy
	// Spec is the per-node performance specification the controller
	// judges nodes against (rate in bytes/s of disk service).
	Spec spec.Spec
	// ProbeInterval is the monitoring period, seconds (default 0.5).
	ProbeInterval sim.Duration
	// HedgeAfter, if positive, re-issues unfinished adaptive reads to
	// another replica after this many seconds.
	HedgeAfter sim.Duration
	// WriteTimeout, if positive, re-issues an unacknowledged adaptive
	// replica write to another node after this many seconds — the
	// promotion threshold applied per request, so writers do not wedge on
	// a node that dies or stalls mid-write. First completion wins.
	WriteTimeout sim.Duration
}

// Volume is a replicated, monitored network block store.
type Volume struct {
	s     *sim.Simulator
	p     VolumeParams
	nodes []*Node
	ctl   *core.Controller

	// placements records, per logical block, the node set holding it —
	// static placement needs no records (it is a pure function), adaptive
	// placement pays the paper's bookkeeping cost.
	placements map[int64][]int
	nextHome   int64
	diverted   uint64
	written    uint64
}

// NewVolume builds the volume and its monitoring plane.
func NewVolume(s *sim.Simulator, p VolumeParams, mkNode func(i int) NodeParams) (*Volume, error) {
	if p.Nodes < p.Replication+1 || p.Replication < 1 || p.BlockBytes <= 0 {
		return nil, fmt.Errorf("wind: invalid volume params %+v", p)
	}
	if err := p.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("wind: %w", err)
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = 0.5
	}
	v := &Volume{s: s, p: p, placements: make(map[int64][]int)}
	v.ctl = core.NewController(s)
	for i := 0; i < p.Nodes; i++ {
		np := mkNode(i)
		disk, err := device.NewDisk(s, np.Disk)
		if err != nil {
			return nil, err
		}
		link := device.NewLink(s, fmt.Sprintf("wind-link-%d", i), np.LinkBandwidth, np.LinkLatency)
		n := &Node{index: i, disk: disk, link: link}
		v.nodes = append(v.nodes, n)
		// Judge each node by its *service speed* (bytes per busy-second),
		// not raw throughput: a disk that is merely idle must not look
		// slow, and a disk that is stuck with queued work must look
		// silent. With no demand at all there is no evidence either way,
		// so the sampler reports the spec rate (innocent until measured).
		interval := p.ProbeInterval
		lastBytes, lastBusy := 0.0, 0.0
		v.ctl.WatchRate(nodeID(i), func(now float64) float64 {
			db := disk.BytesCompleted() - lastBytes
			dbusy := disk.BusyTime() - lastBusy
			lastBytes += db
			lastBusy += dbusy
			switch {
			case disk.Failed():
				return 0
			case dbusy > 0.05*interval:
				return db / dbusy
			case disk.Pending() > 0:
				return 0 // work is waiting and nothing moves
			default:
				return v.p.Spec.ExpectedRate
			}
		}, core.AttachConfig{
			Interval: interval,
			Detector: detect.NewSpecDetector(p.Spec),
			Policy:   core.NotifyPersistent,
			// Enter/exit after two consecutive verdicts balances lag
			// against flapping at the default half-second probe.
			EnterAfter: 2,
			ExitAfter:  2,
		})
	}
	return v, nil
}

func nodeID(i int) string { return fmt.Sprintf("node-%d", i) }

// Node returns the i'th storage node.
func (v *Volume) Node(i int) *Node { return v.nodes[i] }

// Controller exposes the monitoring plane.
func (v *Volume) Controller() *core.Controller { return v.ctl }

// Diverted returns the number of replica writes redirected away from
// faulty nodes.
func (v *Volume) Diverted() uint64 { return v.diverted }

// Written returns completed logical block writes.
func (v *Volume) Written() uint64 { return v.written }

// Bookkeeping returns the number of placement records held.
func (v *Volume) Bookkeeping() int { return len(v.placements) }

// homeNodes returns the default replica set for the next block: a
// round-robin ring stripe.
func (v *Volume) homeNodes(block int64) []int {
	out := make([]int, v.p.Replication)
	for r := range out {
		out[r] = int((block + int64(r)) % int64(v.p.Nodes))
	}
	return out
}

// healthy reports whether the registry considers the node nominal.
func (v *Volume) healthy(i int) bool {
	return v.ctl.State(nodeID(i)) == spec.Nominal
}

// chooseTargets applies the policy to the home set.
func (v *Volume) chooseTargets(block int64) []int {
	home := v.homeNodes(block)
	if v.p.Policy == Static {
		return home
	}
	used := make(map[int]bool, v.p.Replication)
	targets := make([]int, 0, v.p.Replication)
	for _, h := range home {
		t := h
		if !v.healthy(t) {
			// Walk the ring for the nearest healthy, unused node; if the
			// whole ring is unhealthy, keep the home node (writing to a
			// stutterer beats not writing at all).
			for step := 1; step < v.p.Nodes; step++ {
				cand := (t + step) % v.p.Nodes
				if v.healthy(cand) && !used[cand] {
					t = cand
					v.diverted++
					break
				}
			}
		}
		// Avoid duplicate targets when diversion collides with another
		// replica.
		for used[t] {
			t = (t + 1) % v.p.Nodes
		}
		used[t] = true
		targets = append(targets, t)
	}
	return targets
}

// Write appends one logical block; onDone fires when every replica is
// durable. Under the adaptive policy with a WriteTimeout, a replica that
// does not acknowledge in time is re-issued to another node, so writers
// never wedge on a component that stops mid-request.
func (v *Volume) Write(onDone func()) {
	block := v.nextHome
	v.nextHome++
	targets := v.chooseTargets(block)
	if v.p.Policy == Adaptive {
		v.placements[block] = targets
	}
	pending := len(targets)
	replicaDone := func(finalNode int, replica int) {
		targets[replica] = finalNode
		pending--
		if pending == 0 {
			v.written++
			if onDone != nil {
				onDone()
			}
		}
	}
	for r := range targets {
		v.writeReplica(block, targets, r, 0, replicaDone)
	}
}

// writeReplica issues the write for targets[replica] with timeout-driven
// re-diversion; attempts are bounded by the node count. Diversions avoid
// nodes holding (or targeted by) the block's other replicas, so the
// copies stay on distinct nodes — co-located replicas would defeat
// replication. The shared targets slice (aliased by the placement map) is
// updated in place so sibling replicas see diversions immediately.
func (v *Volume) writeReplica(block int64, targets []int, replica, attempt int, done func(finalNode, replica int)) {
	node := targets[replica]
	finished := false
	v.nodes[node].write(block, v.p.BlockBytes, func() {
		if finished {
			return
		}
		finished = true
		done(node, replica)
	})
	if v.p.Policy != Adaptive || v.p.WriteTimeout <= 0 || attempt >= v.p.Nodes {
		return
	}
	v.s.After(v.p.WriteTimeout, func() {
		if finished {
			return
		}
		// The original may still land eventually; mark this attempt dead
		// for completion purposes and race a diverted copy. Block writes
		// are idempotent, so a late duplicate is harmless.
		finished = true
		taken := func(cand int) bool {
			for r, n := range targets {
				if r != replica && n == cand {
					return true
				}
			}
			return false
		}
		alt := -1
		for step := 1; step < v.p.Nodes; step++ {
			cand := (node + step) % v.p.Nodes
			if taken(cand) {
				continue
			}
			if v.healthy(cand) {
				alt = cand
				break
			}
			if alt < 0 {
				alt = cand // remember the first free node as a fallback
			}
		}
		if alt < 0 {
			// Every other node holds a sibling replica (tiny clusters):
			// retry the original home.
			alt = node
		}
		targets[replica] = alt
		v.diverted++
		v.writeReplica(block, targets, replica, attempt+1, done)
	})
}

// Read fetches a logical block; onDone fires at the first replica's
// response. Adaptive reads prefer healthy replicas and hedge after
// HedgeAfter.
func (v *Volume) Read(block int64, onDone func()) {
	if block < 0 || block >= v.nextHome {
		panic(fmt.Sprintf("wind: read of unwritten block %d", block))
	}
	replicas, ok := v.placements[block]
	if !ok {
		replicas = v.homeNodes(block)
	}
	// Order candidates: healthy first under the adaptive policy.
	order := append([]int(nil), replicas...)
	if v.p.Policy == Adaptive {
		healthyFirst := make([]int, 0, len(order))
		for _, r := range order {
			if v.healthy(r) {
				healthyFirst = append(healthyFirst, r)
			}
		}
		for _, r := range order {
			if !v.healthy(r) {
				healthyFirst = append(healthyFirst, r)
			}
		}
		order = healthyFirst
	}
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		if onDone != nil {
			onDone()
		}
	}
	v.nodes[order[0]].read(block, v.p.BlockBytes, finish)
	if v.p.Policy == Adaptive && v.p.HedgeAfter > 0 && len(order) > 1 {
		v.s.After(v.p.HedgeAfter, func() {
			if !finished {
				v.nodes[order[1]].read(block, v.p.BlockBytes, finish)
			}
		})
	}
}
