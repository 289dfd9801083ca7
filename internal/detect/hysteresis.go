package detect

import (
	"fmt"

	"failstutter/internal/spec"
	"failstutter/internal/trace"
)

// Hysteresis wraps a detector and suppresses transient verdicts: the
// component is only *reported* performance-faulty after EnterAfter
// consecutive faulty observations, and only restored after ExitAfter
// consecutive nominal ones. This is the "persistent" filter the paper's
// notification discussion calls for — short-lived blips stay local, only
// sustained degradation is published.
//
// Absolute faults pass through immediately and latch: once a component is
// absolutely failed it never recovers without explicit replacement.
type Hysteresis struct {
	inner      Detector
	enterAfter int
	exitAfter  int

	faultyStreak  int
	nominalStreak int
	reported      spec.Verdict

	log       *trace.AuditLog
	component string
}

// NewHysteresis wraps inner with the given streak requirements.
func NewHysteresis(inner Detector, enterAfter, exitAfter int) *Hysteresis {
	if enterAfter < 1 || exitAfter < 1 {
		panic(fmt.Sprintf("detect: hysteresis streaks must be >= 1 (got %d, %d)", enterAfter, exitAfter))
	}
	return &Hysteresis{
		inner:      inner,
		enterAfter: enterAfter,
		exitAfter:  exitAfter,
		reported:   spec.Nominal,
	}
}

// EnableAudit logs every state-machine decision for the named component
// to log: real transitions, latched absolute faults, and suppressed
// (debounced) steps where the instantaneous verdict disagreed with the
// reported one but the streak had not yet run out. Steady-state agreement
// records nothing, keeping logs proportional to interesting activity.
func (h *Hysteresis) EnableAudit(log *trace.AuditLog, component string) {
	h.log = log
	h.component = component
}

// audit appends one record if auditing is enabled.
func (h *Hysteresis) audit(now float64, kind string, from, to spec.Verdict, streak, need int) {
	if h.log == nil {
		return
	}
	h.log.Add(trace.AuditRecord{
		Time: now, Component: h.component,
		Detector: DetectorName(h.inner), Kind: kind,
		From: from.String(), To: to.String(),
		Streak: streak, Need: need,
		Evidence: EvidenceOf(h.inner),
	})
}

// Observe implements Detector: it forwards the observation and advances
// the streak state machine using the inner detector's instantaneous
// verdict.
func (h *Hysteresis) Observe(now, rate float64) {
	h.inner.Observe(now, rate)
	if h.reported == spec.AbsoluteFaulty {
		return // latched
	}
	switch h.inner.Verdict(now) {
	case spec.AbsoluteFaulty:
		h.audit(now, trace.AuditLatch, h.reported, spec.AbsoluteFaulty, 0, 0)
		h.reported = spec.AbsoluteFaulty
	case spec.PerfFaulty:
		h.faultyStreak++
		h.nominalStreak = 0
		if h.reported == spec.Nominal {
			if h.faultyStreak >= h.enterAfter {
				h.audit(now, trace.AuditTransition, spec.Nominal, spec.PerfFaulty, h.faultyStreak, h.enterAfter)
				h.reported = spec.PerfFaulty
			} else {
				h.audit(now, trace.AuditDebounce, spec.Nominal, spec.PerfFaulty, h.faultyStreak, h.enterAfter)
			}
		}
	case spec.Nominal:
		h.nominalStreak++
		h.faultyStreak = 0
		if h.reported == spec.PerfFaulty {
			if h.nominalStreak >= h.exitAfter {
				h.audit(now, trace.AuditTransition, spec.PerfFaulty, spec.Nominal, h.nominalStreak, h.exitAfter)
				h.reported = spec.Nominal
			} else {
				h.audit(now, trace.AuditDebounce, spec.PerfFaulty, spec.Nominal, h.nominalStreak, h.exitAfter)
			}
		}
	}
}

// Verdict implements Detector, returning the debounced classification.
func (h *Hysteresis) Verdict(now float64) spec.Verdict {
	if h.reported == spec.AbsoluteFaulty {
		return h.reported
	}
	// Promotion can also arrive between observations (pure silence).
	if h.inner.Verdict(now) == spec.AbsoluteFaulty {
		h.audit(now, trace.AuditLatch, h.reported, spec.AbsoluteFaulty, 0, 0)
		h.reported = spec.AbsoluteFaulty
	}
	return h.reported
}
