// Package failstutter is the public API of a Go toolkit implementing the
// fail-stutter fault model of Arpaci-Dusseau & Arpaci-Dusseau (HotOS
// 2001): an extension of fail-stop in which components may deliver less
// performance than their specification without having failed absolutely.
//
// The toolkit's layers are re-exported here as a stable facade over the
// internal packages:
//
//   - the model: performance specifications, the Nominal / PerfFaulty /
//     AbsoluteFaulty classification, and the promotion threshold T that
//     turns sustained silence into an absolute fault (Spec, Verdict);
//   - detection and notification: spec-relative, history-relative and
//     peer-relative stutter detectors, hysteresis for persistence, and
//     the registry that publishes persistent state (NewSpecDetector,
//     NewEWMADetector, NewPeerSet, NewHysteresis, NewRegistry,
//     Controller);
//   - fail-stutter-tolerant storage: the paper's RAID-10 worked example
//     with static, install-time-gauged, and continuously-adaptive
//     striping (NewMirrorPair, NewArray, StaticEqual, GaugedProportional,
//     AdaptivePull, AdaptiveWave);
//   - fail-stutter-tolerant computation: a virtual-time worker pool with
//     schedulers from static partitioning to detect-and-avoid migration,
//     plus a replicated DHT with hinted handoff (NewPool, Schedulers,
//     NewDHT), both running on the sharded kernel
//     (NewShardedSimulator);
//   - the River mechanisms the paper's related work discusses
//     (NewRiverQueue, NewGraduatedDecluster) and the WiND network storage
//     volume its future work proposes (NewWindVolume), whose placement
//     consults the notification registry.
//
// Everything — devices, RAID, River, WiND, and the cluster runtime —
// runs on the deterministic discrete-event kernel, so every result is a
// pure function of its configuration. The switch fabric, worker pool and
// DHT take the sharded form of that kernel (ShardedSimulator), whose
// results are byte-identical at every shard count; a 1-shard kernel
// built with NewShardedSimulator(1, lookahead) is the single-threaded
// case. The Experiments function
// exposes the full reproduction suite (see EXPERIMENTS.md).
package failstutter

import (
	"failstutter/internal/cluster"
	"failstutter/internal/core"
	"failstutter/internal/detect"
	"failstutter/internal/device"
	"failstutter/internal/experiments"
	"failstutter/internal/raid"
	"failstutter/internal/river"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
	"failstutter/internal/wind"
)

// Model layer.
type (
	// Spec is a component performance specification: expected rate,
	// tolerance band, and the promotion threshold T.
	Spec = spec.Spec
	// Verdict classifies a component: Nominal, PerfFaulty or
	// AbsoluteFaulty.
	Verdict = spec.Verdict
)

// Verdict values.
const (
	Nominal        = spec.Nominal
	PerfFaulty     = spec.PerfFaulty
	AbsoluteFaulty = spec.AbsoluteFaulty
)

// Simulation kernel.
type (
	// Simulator is the deterministic discrete-event kernel used by the
	// device, RAID and availability experiments.
	Simulator = sim.Simulator
	// Station is a FCFS server with a time-varying rate — the primitive
	// every simulated device builds on.
	Station = sim.Station
	// RNG is the seeded random stream used throughout.
	RNG = sim.RNG
	// ShardedSimulator partitions one simulation across shard kernels that
	// advance together through conservative safe windows; the switch,
	// worker pool and DHT run on it.
	ShardedSimulator = sim.ShardedSimulator
)

// NewSimulator returns a simulator with its clock at zero.
func NewSimulator() *Simulator { return sim.New() }

// NewShardedSimulator returns a kernel of the given number of shards with
// the given lookahead — the minimum delay of any cross-shard interaction,
// which also sets the barrier engine's dispatch granularity. Pools and
// DHTs conventionally use their quantum, switches their wire latency.
func NewShardedSimulator(shards int, lookahead float64) *ShardedSimulator {
	return sim.NewSharded(shards, lookahead)
}

// NewRNG returns a deterministic random stream for the given seed.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// Detection layer.
type (
	// Detector turns a (time, rate) observation stream into verdicts.
	Detector = detect.Detector
	// Registry is the notification plane publishing verdict transitions.
	Registry = detect.Registry
	// RegistryEvent is one published verdict transition.
	RegistryEvent = detect.Event
	// Controller wires probes, detectors and the registry together.
	Controller = core.Controller
	// AttachConfig configures monitoring for one component.
	AttachConfig = core.AttachConfig
	// EWMAConfig parameterizes a history-relative detector.
	EWMAConfig = detect.EWMAConfig
	// PeerConfig parameterizes fleet-relative detection.
	PeerConfig = detect.PeerConfig
	// PeerSet compares each fleet member against its peers.
	PeerSet = detect.PeerSet
)

// Notification policies for AttachConfig.
const (
	NotifyPersistent = core.NotifyPersistent
	NotifyEvery      = core.NotifyEvery
)

// NewSpecDetector classifies against an absolute performance spec.
func NewSpecDetector(s Spec) Detector { return detect.NewSpecDetector(s) }

// NewEWMADetector classifies against the component's own smoothed history.
func NewEWMADetector(cfg EWMAConfig) Detector { return detect.NewEWMADetector(cfg) }

// NewPeerSet classifies fleet members against each other.
func NewPeerSet(cfg PeerConfig) *PeerSet { return detect.NewPeerSet(cfg) }

// NewHysteresis debounces a detector: enterAfter consecutive faulty
// verdicts to report, exitAfter nominal ones to recover.
func NewHysteresis(inner Detector, enterAfter, exitAfter int) Detector {
	return detect.NewHysteresis(inner, enterAfter, exitAfter)
}

// NewRegistry returns an empty notification registry.
func NewRegistry() *Registry { return detect.NewRegistry() }

// NewController returns a fail-stutter control plane on the simulator.
func NewController(s *Simulator) *Controller { return core.NewController(s) }

// Devices.
type (
	// Disk is a simulated drive with zones, remapped blocks and aging.
	Disk = device.Disk
	// DiskParams configures a Disk.
	DiskParams = device.DiskParams
	// DiskZone is one radial zone of a disk's geometry.
	DiskZone = device.Zone
	// Switch is a crossbar with bounded buffers and HOL blocking.
	Switch = device.Switch
	// SwitchParams configures a Switch.
	SwitchParams = device.SwitchParams
)

// NewDisk builds a simulated disk.
func NewDisk(s *Simulator, p DiskParams) (*Disk, error) { return device.NewDisk(s, p) }

// HawkParams returns parameters modelled on the paper's Seagate Hawk.
func HawkParams(name string) DiskParams { return device.HawkParams(name) }

// NewSwitch builds a simulated crossbar switch on the sharded kernel; the
// kernel's lookahead must not exceed the switch's wire latency.
func NewSwitch(ss *ShardedSimulator, p SwitchParams) *Switch { return device.NewSwitch(ss, p) }

// Storage layer (the Section 3.2 worked example).
type (
	// MirrorPair is a RAID-1 pair whose write rate is the min of its
	// members.
	MirrorPair = raid.MirrorPair
	// Array is a RAID-10 array striping blocks over mirror pairs.
	Array = raid.Array
	// Striper is a placement policy for striped writes.
	Striper = raid.Striper
	// StripeResult summarizes one striped write job.
	StripeResult = raid.Result
	// StaticEqual is scenario 1: equal shares, fail-stop assumptions.
	StaticEqual = raid.StaticEqual
	// GaugedProportional is scenario 2: install-time gauged ratios.
	GaugedProportional = raid.GaugedProportional
	// AdaptivePull is scenario 3 in work-conserving form.
	AdaptivePull = raid.AdaptivePull
	// AdaptiveWave is scenario 3 in literal re-gauge-every-interval form.
	AdaptiveWave = raid.AdaptiveWave
	// SparePool holds hot spares for reconstruction.
	SparePool = raid.SparePool
	// ReconEvent describes a completed hot-spare rebuild.
	ReconEvent = raid.ReconEvent
)

// NewSparePool builds a pool of hot-spare disks.
func NewSparePool(disks ...*Disk) *SparePool { return raid.NewSparePool(disks...) }

// EnableReconstruction arms hot-spare rebuild on every pair of the array.
func EnableReconstruction(a *Array, pool *SparePool, chunkBlocks int64, onComplete func(ReconEvent)) {
	raid.EnableReconstruction(a, pool, chunkBlocks, onComplete)
}

// NewMirrorPair builds a mirrored pair over two disks.
func NewMirrorPair(s *Simulator, id int, a, b *Disk) *MirrorPair {
	return raid.NewMirrorPair(s, id, a, b)
}

// NewArray builds a RAID-10 array over the pairs.
func NewArray(s *Simulator, pairs []*MirrorPair, blockBytes float64) *Array {
	return raid.NewArray(s, pairs, blockBytes)
}

// WriteAndMeasure runs a striper to completion and reports throughput,
// per-pair placement and bookkeeping cost.
func WriteAndMeasure(s *Simulator, a *Array, st Striper, blocks int64) (StripeResult, error) {
	return raid.WriteAndMeasure(s, a, st, blocks)
}

// Cluster layer (virtual time).
type (
	// Pool is a set of workers with injectable slowdowns.
	Pool = cluster.Pool
	// Worker is one compute node.
	Worker = cluster.Worker
	// Task is one schedulable unit of work.
	Task = cluster.Task
	// Scheduler runs a task set on a pool.
	Scheduler = cluster.Scheduler
	// SchedulerReport summarizes a scheduled run.
	SchedulerReport = cluster.Report
	// DHT is a replicated hash table with optional stutter awareness.
	DHT = cluster.DHT
	// DHTParams configures a DHT.
	DHTParams = cluster.DHTParams
)

// NewPool builds n workers on the sharded kernel with the given work-unit
// quantum (the virtual time one unit costs at speed 1).
func NewPool(ss *ShardedSimulator, n int, quantum float64) *Pool {
	return cluster.NewPool(ss, n, quantum)
}

// Schedulers returns the standard comparison set, least to most
// fail-stutter aware.
func Schedulers() []Scheduler { return cluster.Schedulers() }

// UniformTasks builds n tasks of equal size.
func UniformTasks(n, units int) []Task { return cluster.UniformTasks(n, units) }

// NewDHT builds a replicated hash table on the sharded kernel.
func NewDHT(ss *ShardedSimulator, p DHTParams) *DHT { return cluster.NewDHT(ss, p) }

// WiND layer (Section 5's target system, prototyped): a replicated
// network storage volume whose placement consults the registry.
type (
	// WindVolume is a monitored, replicated network block store.
	WindVolume = wind.Volume
	// WindVolumeParams configures a WindVolume.
	WindVolumeParams = wind.VolumeParams
	// WindNodeParams configures one storage node (disk behind a link).
	WindNodeParams = wind.NodeParams
	// WindPolicy selects static or registry-driven adaptive placement.
	WindPolicy = wind.Policy
)

// WiND placement policies.
const (
	WindStatic   = wind.Static
	WindAdaptive = wind.Adaptive
)

// NewWindVolume builds a volume and its monitoring plane on the
// simulator.
func NewWindVolume(s *Simulator, p WindVolumeParams, mkNode func(i int) WindNodeParams) (*WindVolume, error) {
	return wind.NewVolume(s, p, mkNode)
}

// River layer (Section 4's precursor system, rebuilt).
type (
	// RiverQueue is River's distributed queue: back-pressure balancing
	// over consumers of varying speed.
	RiverQueue = river.DQ
	// RiverQueueParams configures a RiverQueue.
	RiverQueueParams = river.DQParams
	// RiverPolicy selects the queue's routing discipline.
	RiverPolicy = river.Policy
	// GraduatedDecluster is River's mirrored-read mechanism.
	GraduatedDecluster = river.GD
	// GraduatedDeclusterParams configures a GraduatedDecluster.
	GraduatedDeclusterParams = river.GDParams
)

// River routing policies.
const (
	RiverRoundRobin  = river.RoundRobin
	RiverRandom      = river.RandomChoice
	RiverCreditBased = river.CreditBased
)

// NewRiverQueue builds a distributed queue on the simulator.
func NewRiverQueue(s *Simulator, p RiverQueueParams) *RiverQueue { return river.NewDQ(s, p) }

// NewGraduatedDecluster builds a mirrored-read set on the simulator.
func NewGraduatedDecluster(s *Simulator, p GraduatedDeclusterParams) *GraduatedDecluster {
	return river.NewGD(s, p)
}

// Experiments.
type (
	// Experiment is one registered reproduction of a paper claim.
	Experiment = experiments.Experiment
	// ExperimentConfig parameterizes a run of the suite.
	ExperimentConfig = experiments.Config
	// ResultTable is an experiment's regenerated output.
	ResultTable = experiments.Table
)

// Experiments returns the full reproduction suite in display order.
func Experiments() []Experiment { return experiments.All() }

// GetExperiment looks up one experiment by id (e.g. "E03").
func GetExperiment(id string) (Experiment, error) { return experiments.Get(id) }
