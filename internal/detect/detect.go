// Package detect implements stutter detection: the statistical machinery
// that turns a stream of per-component rate observations into the
// fail-stutter model's classifications (nominal, performance-faulty,
// absolutely failed).
//
// Detectors come in three flavours, ablated against each other in the
// experiment suite:
//
//   - SpecDetector compares against an absolute performance specification
//     (internal/spec);
//   - EWMADetector compares a component against its own smoothed history,
//     needing no a-priori spec;
//   - PeerSet compares each component against the median of its peers,
//     which stays quiet when the whole fleet shifts together (a workload
//     change) and fires only on divergent components.
//
// Hysteresis wraps any detector to distinguish persistent faults from
// transient blips; only persistent transitions need to be published, per
// the paper's notification discussion ("erratic performance may occur
// quite frequently, and thus distributing that information may be overly
// expensive").
package detect

import (
	"fmt"
	"math"
	"sort"

	"failstutter/internal/spec"
	"failstutter/internal/stats"
)

// Detector consumes (time, rate) observations for one component and
// classifies it.
type Detector interface {
	// Observe records the component's service rate at the given time.
	// Times must be non-decreasing.
	Observe(now, rate float64)
	// Verdict classifies the component as of the given time.
	Verdict(now float64) spec.Verdict
}

// SpecDetector classifies against an absolute performance specification.
type SpecDetector struct {
	tracker *spec.Tracker
}

// NewSpecDetector builds a detector for the given spec.
func NewSpecDetector(s spec.Spec) *SpecDetector {
	return &SpecDetector{tracker: spec.NewTracker(s)}
}

// Observe implements Detector.
func (d *SpecDetector) Observe(now, rate float64) { d.tracker.Observe(now, rate) }

// Verdict implements Detector.
func (d *SpecDetector) Verdict(now float64) spec.Verdict { return d.tracker.Verdict(now) }

// Deficit exposes the tracked shortfall fraction.
func (d *SpecDetector) Deficit() float64 { return d.tracker.Deficit() }

// EWMAConfig parameterizes an EWMADetector.
type EWMAConfig struct {
	// FastAlpha smooths the recent-rate estimate (higher = more reactive).
	FastAlpha float64
	// SlowAlpha smooths the long-term baseline (lower = steadier).
	SlowAlpha float64
	// Threshold is the fraction of baseline below which the component is
	// performance-faulty, e.g. 0.7.
	Threshold float64
	// PromotionTimeout is T: continuous zero rate longer than this is an
	// absolute fault. Zero disables promotion.
	PromotionTimeout float64
}

// Validate checks the configuration.
func (c EWMAConfig) Validate() error {
	switch {
	case c.FastAlpha <= 0 || c.FastAlpha > 1:
		return fmt.Errorf("detect: fast alpha %v outside (0,1]", c.FastAlpha)
	case c.SlowAlpha <= 0 || c.SlowAlpha > 1:
		return fmt.Errorf("detect: slow alpha %v outside (0,1]", c.SlowAlpha)
	case c.SlowAlpha > c.FastAlpha:
		return fmt.Errorf("detect: slow alpha %v exceeds fast alpha %v", c.SlowAlpha, c.FastAlpha)
	case c.Threshold <= 0 || c.Threshold >= 1:
		return fmt.Errorf("detect: threshold %v outside (0,1)", c.Threshold)
	case c.PromotionTimeout < 0:
		return fmt.Errorf("detect: negative promotion timeout")
	}
	return nil
}

// EWMADetector flags a component whose fast-smoothed rate falls below a
// fraction of its own slow-smoothed baseline. It needs no absolute spec,
// so it tolerates heterogeneous hardware — but it also normalizes slow
// drift into the baseline, which the ablation experiments quantify.
type EWMADetector struct {
	cfg          EWMAConfig
	fast         *stats.EWMA
	slow         *stats.EWMA
	lastProgress float64
	sawAnything  bool
}

// NewEWMADetector validates cfg and builds the detector.
func NewEWMADetector(cfg EWMAConfig) *EWMADetector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &EWMADetector{
		cfg:  cfg,
		fast: stats.NewEWMA(cfg.FastAlpha),
		slow: stats.NewEWMA(cfg.SlowAlpha),
	}
}

// Observe implements Detector.
func (d *EWMADetector) Observe(now, rate float64) {
	if !d.sawAnything {
		d.lastProgress = now
		d.sawAnything = true
	}
	d.fast.Observe(rate)
	// The baseline only absorbs healthy observations: folding stall samples
	// into it would erode the reference the detector compares against.
	if rate > 0 {
		d.slow.Observe(rate)
		d.lastProgress = now
	}
}

// Verdict implements Detector.
func (d *EWMADetector) Verdict(now float64) spec.Verdict {
	if !d.sawAnything || !d.slow.Initialized() {
		return spec.Nominal
	}
	if d.cfg.PromotionTimeout > 0 && now-d.lastProgress > d.cfg.PromotionTimeout {
		return spec.AbsoluteFaulty
	}
	if d.fast.Value() < d.cfg.Threshold*d.slow.Value() {
		return spec.PerfFaulty
	}
	return spec.Nominal
}

// Baseline returns the slow-smoothed reference rate (NaN before data).
func (d *EWMADetector) Baseline() float64 { return d.slow.Value() }

// Recent returns the fast-smoothed recent rate (NaN before data).
func (d *EWMADetector) Recent() float64 { return d.fast.Value() }

// WindowConfig parameterizes a WindowDetector.
type WindowConfig struct {
	// BaselineSamples is how many initial samples form the gauged
	// baseline (its median becomes the reference).
	BaselineSamples int
	// RecentSamples is the sliding-window length compared against the
	// baseline.
	RecentSamples int
	// Threshold is the fraction of baseline-median below which the recent
	// median is performance-faulty.
	Threshold float64
	// PromotionTimeout promotes sustained silence; zero disables.
	PromotionTimeout float64
}

// WindowDetector gauges a baseline once (install-time gauging, the
// paper's scenario-2 design) and compares a recent sliding median against
// it. Robust to single-sample noise; blind to slow baseline drift by
// construction, which is exactly what scenario 2's failure mode requires.
type WindowDetector struct {
	cfg          WindowConfig
	baseline     []float64
	baselineMed  float64
	recent       *stats.Window
	lastProgress float64
	sawAnything  bool
}

// NewWindowDetector validates cfg and builds the detector.
func NewWindowDetector(cfg WindowConfig) *WindowDetector {
	if cfg.BaselineSamples < 1 || cfg.RecentSamples < 1 ||
		cfg.Threshold <= 0 || cfg.Threshold >= 1 || cfg.PromotionTimeout < 0 {
		panic(fmt.Sprintf("detect: invalid window config %+v", cfg))
	}
	return &WindowDetector{cfg: cfg, recent: stats.NewWindow(cfg.RecentSamples)}
}

// Observe implements Detector.
func (d *WindowDetector) Observe(now, rate float64) {
	if !d.sawAnything {
		d.lastProgress = now
		d.sawAnything = true
	}
	if rate > 0 {
		d.lastProgress = now
	}
	if len(d.baseline) < d.cfg.BaselineSamples {
		d.baseline = append(d.baseline, rate)
		if len(d.baseline) == d.cfg.BaselineSamples {
			d.baselineMed = stats.Median(d.baseline)
		}
		return
	}
	d.recent.Observe(rate)
}

// Gauged reports whether the baseline has been established.
func (d *WindowDetector) Gauged() bool { return len(d.baseline) == d.cfg.BaselineSamples }

// Baseline returns the gauged reference rate (NaN before gauging).
func (d *WindowDetector) Baseline() float64 {
	if !d.Gauged() {
		return math.NaN()
	}
	return d.baselineMed
}

// Verdict implements Detector.
func (d *WindowDetector) Verdict(now float64) spec.Verdict {
	if !d.sawAnything {
		return spec.Nominal
	}
	if d.cfg.PromotionTimeout > 0 && now-d.lastProgress > d.cfg.PromotionTimeout {
		return spec.AbsoluteFaulty
	}
	if !d.Gauged() || d.recent.Len() == 0 {
		return spec.Nominal
	}
	if d.recent.Median() < d.cfg.Threshold*d.baselineMed {
		return spec.PerfFaulty
	}
	return spec.Nominal
}

// PeerConfig parameterizes a PeerSet.
type PeerConfig struct {
	// WindowSamples is the per-component sliding window length.
	WindowSamples int
	// Threshold is the fraction of the peer median below which a
	// component is performance-faulty.
	Threshold float64
	// MinPeers is the minimum fleet size before any verdicts are issued
	// (comparing against too few peers is meaningless).
	MinPeers int
	// PromotionTimeout promotes sustained silence; zero disables.
	PromotionTimeout float64
}

// PeerSet classifies each component of a fleet against the median of its
// peers' recent rates. A fleet-wide slowdown (workload shift, shared
// bottleneck) moves the median too, so nothing is flagged; only divergent
// components fire — the property ablation A3 measures.
//
// Each member's window median is cached on observe, and a verdict reads
// the exclude-one fleet median in O(1) off a median band: the three
// middle order statistics and the maximum of those medians
// (stats.MedianBand), so no per-verdict copy or search exists at any
// fleet size. Observes only mark the band dirty (a registration leaves it
// as is: the band covers sampled members only); the next read refills it
// with one copy into a reusable buffer and one expected-O(P) select.
// Every caller works in phases — observe every member, then read every
// verdict (A3's eight components, the network example's ports, the fleet
// experiments' barrier sweep over up to 2^20 disks) — so the band is
// refilled once per phase: a full sweep is one O(P) select plus P O(1)
// reads, with zero allocation once the buffer has grown to fleet size.
type PeerSet struct {
	cfg     PeerConfig
	members map[string]*peerMember
	list    []*peerMember // members in registration order, the rebuild source
	meds    []float64     // scratch for the band: the sampled members' cached medians
	band    stats.MedianBand
	// medsDirty marks the band stale; the next read refills it.
	medsDirty bool
	ids       []string // sorted member ids; nil after a membership change
	// flagCounts holds the sweep engine's per-worker flag counters
	// (sweep.go), reused across sweeps.
	flagCounts []int
}

type peerMember struct {
	window       *stats.Window
	med          float64 // cached window.Median(), maintained by observe
	lastProgress float64
	sawAnything  bool
	idx          int32 // dense sweep index: position in list
}

// NewPeerSet validates cfg and builds an empty fleet.
func NewPeerSet(cfg PeerConfig) *PeerSet {
	if cfg.WindowSamples < 1 || cfg.Threshold <= 0 || cfg.Threshold >= 1 ||
		cfg.MinPeers < 2 || cfg.PromotionTimeout < 0 {
		panic(fmt.Sprintf("detect: invalid peer config %+v", cfg))
	}
	return &PeerSet{cfg: cfg, members: make(map[string]*peerMember)}
}

// Observe records a rate sample for the named component.
func (p *PeerSet) Observe(id string, now, rate float64) {
	m := p.members[id]
	if m == nil {
		m = p.addMember(id)
	}
	m.observe(now, rate)
	p.medsDirty = true
}

// observe records one sample in the member's window and refreshes its
// cached median. It touches only member-private state, so the sweep
// engine runs it on disjoint members concurrently.
func (m *peerMember) observe(now, rate float64) {
	if !m.sawAnything {
		m.lastProgress = now
		m.sawAnything = true
	}
	if rate > 0 {
		m.lastProgress = now
	}
	m.window.Observe(rate)
	m.med = m.window.Median()
}

// addMember creates and indexes a fresh member.
func (p *PeerSet) addMember(id string) *peerMember {
	m := &peerMember{
		window: stats.NewWindow(p.cfg.WindowSamples),
		idx:    int32(len(p.list)),
	}
	p.members[id] = m
	p.list = append(p.list, m)
	p.ids = nil // membership changed; cached sorted ids are stale
	return m
}

// rebuildMeds refills the band from the cached median of every member
// holding at least one sample — a registered member that has never
// reported is nobody's peer. One copy in registration order into the
// reusable buffer, which the band's select then reorders in place; no
// allocation once the buffer has grown to fleet size.
func (p *PeerSet) rebuildMeds() {
	if cap(p.meds) < len(p.list) {
		p.meds = make([]float64, 0, 2*len(p.list))
	}
	meds := p.meds[:0]
	for _, m := range p.list {
		if m.window.Len() > 0 {
			meds = append(meds, m.med)
		}
	}
	p.band.Fill(meds)
	p.meds = meds
	p.medsDirty = false
}

// medianBand returns the band, refilling it first if an observe has left
// it stale. Every reader of the band — Verdict, SweepVerdicts and the
// evidence behind a verdict — goes through here.
func (p *PeerSet) medianBand() *stats.MedianBand {
	if p.medsDirty {
		p.rebuildMeds()
	}
	return &p.band
}

// Members returns the component ids in sorted order. The slice is cached
// until membership changes; callers must not modify it.
func (p *PeerSet) Members() []string {
	if p.ids == nil {
		p.ids = make([]string, 0, len(p.members))
		for id := range p.members {
			p.ids = append(p.ids, id)
		}
		sort.Strings(p.ids)
	}
	return p.ids
}

// peerMedian computes the median of the band's medians excluding the
// sampled member m's entry (duplicates are interchangeable — excluding any
// one of them leaves the same multiset) in O(1): no search and no copy at
// any fleet size. NaN when m has no peers.
func peerMedian(band *stats.MedianBand, m *peerMember) float64 {
	return band.MedianExcluding(m.med)
}

// Verdict classifies the named component as of the given time.
func (p *PeerSet) Verdict(id string, now float64) spec.Verdict {
	m := p.members[id]
	if m == nil {
		return spec.Nominal
	}
	if v, done := p.quickVerdict(m, now); done {
		return v
	}
	return p.classify(p.medianBand(), m)
}

// quickVerdict resolves the verdicts that need no fleet median: unseen
// members, silence promotion, and too-small fleets. done reports whether
// the verdict is final.
func (p *PeerSet) quickVerdict(m *peerMember, now float64) (v spec.Verdict, done bool) {
	if !m.sawAnything {
		return spec.Nominal, true
	}
	if p.cfg.PromotionTimeout > 0 && now-m.lastProgress > p.cfg.PromotionTimeout {
		return spec.AbsoluteFaulty, true
	}
	if len(p.members) < p.cfg.MinPeers || m.window.Len() == 0 {
		return spec.Nominal, true
	}
	return spec.Nominal, false
}

// classify compares the sampled member's cached median against the
// exclude-one median read off the clean band. It only reads, so the
// sweep engine fans it across workers after one refill.
func (p *PeerSet) classify(band *stats.MedianBand, m *peerMember) spec.Verdict {
	ref := peerMedian(band, m)
	if math.IsNaN(ref) {
		return spec.Nominal
	}
	if m.med < p.cfg.Threshold*ref {
		return spec.PerfFaulty
	}
	return spec.Nominal
}

// ComponentDetector adapts one member of a PeerSet to the Detector
// interface.
func (p *PeerSet) ComponentDetector(id string) Detector {
	return &peerAdapter{set: p, id: id}
}

type peerAdapter struct {
	set *PeerSet
	id  string
}

func (a *peerAdapter) Observe(now, rate float64)        { a.set.Observe(a.id, now, rate) }
func (a *peerAdapter) Verdict(now float64) spec.Verdict { return a.set.Verdict(a.id, now) }
