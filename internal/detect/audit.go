package detect

import (
	"math"

	"failstutter/internal/spec"
	"failstutter/internal/trace"
)

// Explainer is implemented by detectors that can report the quantitative
// evidence behind their current verdict: what was observed, what it was
// compared against, and with what threshold. Audit trails call it at the
// moment of a verdict transition.
type Explainer interface {
	Explain() trace.Evidence
}

// EvidenceOf returns d's current evidence, or a zero Evidence ("no
// evidence") for detectors that cannot explain themselves.
func EvidenceOf(d Detector) trace.Evidence {
	if e, ok := d.(Explainer); ok {
		return e.Explain()
	}
	return trace.Evidence{}
}

// NamedDetector lets detector implementations outside this package report
// their family name in audit records.
type NamedDetector interface {
	DetectorName() string
}

// DetectorName returns the detector family name for audit records.
func DetectorName(d Detector) string {
	switch v := d.(type) {
	case *SpecDetector:
		return "spec"
	case *EWMADetector:
		return "ewma"
	case *WindowDetector:
		return "window"
	case *TrendDetector:
		return "trend"
	case *peerAdapter:
		return "peer"
	case *Hysteresis:
		return DetectorName(v.inner)
	case *Audited:
		return DetectorName(v.Detector)
	case NamedDetector:
		return v.DetectorName()
	default:
		return "detector"
	}
}

// margin computes observed - threshold*reference, the signed distance to
// the verdict boundary (negative = below the bar).
func margin(observed, threshold, reference float64) float64 {
	return observed - threshold*reference
}

// Explain implements Explainer: the last observed rate against the spec's
// minimum acceptable rate.
func (d *SpecDetector) Explain() trace.Evidence {
	s := d.tracker.Spec()
	obs := d.tracker.LastRate()
	ref := s.MinAcceptable()
	return trace.Evidence{
		Signal: "rate", Observed: obs,
		RefKind: "spec-min", Reference: ref,
		Threshold: 1, Margin: margin(obs, 1, ref),
	}
}

// Explain implements Explainer: the fast EWMA against a fraction of the
// component's own slow baseline.
func (d *EWMADetector) Explain() trace.Evidence {
	obs, ref := d.fast.Value(), d.slow.Value()
	return trace.Evidence{
		Signal: "ewma-fast", Observed: obs,
		RefKind: "self-baseline", Reference: ref,
		Threshold: d.cfg.Threshold, Margin: margin(obs, d.cfg.Threshold, ref),
	}
}

// Explain implements Explainer: the recent window median against a
// fraction of the install-time gauged baseline median.
func (d *WindowDetector) Explain() trace.Evidence {
	obs := math.NaN()
	if d.recent.Len() > 0 {
		obs = d.recent.Median()
	}
	ref := d.Baseline()
	return trace.Evidence{
		Signal: "window-median", Observed: obs,
		RefKind: "gauged-baseline", Reference: ref,
		Threshold: d.cfg.Threshold, Margin: margin(obs, d.cfg.Threshold, ref),
	}
}

// Explain implements Explainer: the fitted decline across one window span
// against a fraction of the window's median level.
func (d *TrendDetector) Explain() trace.Evidence {
	obs := math.NaN()
	ref := math.NaN()
	if d.times.Len() > 0 {
		span := d.times.At(d.times.Len()-1) - d.times.At(0)
		if s := d.Slope(); span > 0 && !math.IsNaN(s) {
			obs = -s * span
		}
		ref = d.rates.Median()
	}
	return trace.Evidence{
		Signal: "theil-sen-decline", Observed: obs,
		RefKind: "window-level", Reference: ref,
		Threshold: d.cfg.DeclineFrac, Margin: margin(obs, d.cfg.DeclineFrac, ref),
	}
}

// Explain implements Explainer: the member's window median against a
// fraction of the exclude-one fleet median, read off the current median
// band (NaN for both before the member's first sample).
func (a *peerAdapter) Explain() trace.Evidence {
	m := a.set.member(a.id)
	obs, ref := math.NaN(), math.NaN()
	if m != nil && m.window.Len() > 0 {
		obs = m.med
		ref = peerMedian(a.set.medianBand(), m)
	}
	return trace.Evidence{
		Signal: "window-median", Observed: obs,
		RefKind: "peer-median", Reference: ref,
		Threshold: a.set.cfg.Threshold, Margin: margin(obs, a.set.cfg.Threshold, ref),
	}
}

// Explain implements Explainer by delegating to the wrapped detector.
func (h *Hysteresis) Explain() trace.Evidence { return EvidenceOf(h.inner) }

// Audited wraps a raw (non-debounced) detector and logs every verdict
// transition with evidence. Use it for detectors run without Hysteresis;
// hysteresis-wrapped detectors get richer records (including suppressed
// debounce steps) via Hysteresis.EnableAudit instead.
type Audited struct {
	Detector
	log       *trace.AuditLog
	component string
	last      spec.Verdict
}

// NewAudited wraps d, logging transitions for the named component. A nil
// log records nothing (the wrapper stays inert).
func NewAudited(d Detector, log *trace.AuditLog, component string) *Audited {
	return &Audited{Detector: d, log: log, component: component}
}

// Observe implements Detector: it forwards the observation and logs any
// resulting verdict change.
func (a *Audited) Observe(now, rate float64) {
	a.Detector.Observe(now, rate)
	if a.log == nil {
		return
	}
	v := a.Detector.Verdict(now)
	if v == a.last {
		return
	}
	a.log.Add(trace.AuditRecord{
		Time: now, Component: a.component,
		Detector: DetectorName(a.Detector), Kind: trace.AuditTransition,
		From: a.last.String(), To: v.String(),
		Evidence: EvidenceOf(a.Detector),
	})
	a.last = v
}
