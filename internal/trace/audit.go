package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Evidence captures the quantitative basis for a detector verdict at the
// moment it was issued: the observed signal, the reference it was judged
// against, and the threshold multiplier separating nominal from faulty.
type Evidence struct {
	Signal    string  // what was measured, e.g. "rate", "window-median", "theil-sen-decline"
	Observed  float64 // the measured value
	RefKind   string  // what it was compared to, e.g. "spec-min", "self-baseline", "peer-median"
	Reference float64 // the comparison value
	Threshold float64 // multiplier on Reference that the verdict used
	Margin    float64 // Observed - Threshold*Reference; negative = below the bar
}

// String renders the evidence on one line, e.g.
// "window-median=31.2 vs 0.50 x peer-median=98.4 (margin -17.9)".
func (e Evidence) String() string {
	if e.Signal == "" {
		return "no evidence"
	}
	return fmt.Sprintf("%s=%.4g vs %.2f x %s=%.4g (margin %+.4g)",
		e.Signal, e.Observed, e.Threshold, e.RefKind, e.Reference, e.Margin)
}

// Audit record kinds.
const (
	AuditTransition = "transition" // verdict actually changed
	AuditDebounce   = "debounce"   // hysteresis suppressed a change this step
	AuditLatch      = "latch"      // absolute fault latched permanently
)

// AuditRecord is one entry in the verdict audit trail. From/To hold
// verdict names as strings ("nominal", "perf-faulty", "absolute-faulty")
// so this package stays a leaf with no dependency on the spec package.
type AuditRecord struct {
	Time      float64
	Component string
	Detector  string // detector family, e.g. "spec", "ewma", "window", "trend", "peer"
	Kind      string // AuditTransition, AuditDebounce, or AuditLatch
	From, To  string
	Streak    int // consecutive agreeing observations (hysteresis)
	Need      int // streak length required to act (hysteresis)
	Evidence  Evidence
}

// AuditLog collects verdict audit records. Safe for concurrent use; nil
// receivers are no-ops so detectors can carry an optional log.
type AuditLog struct {
	mu   sync.Mutex
	recs []AuditRecord
}

// NewAuditLog builds an empty audit log.
func NewAuditLog() *AuditLog { return &AuditLog{} }

// Add appends one record. No-op on a nil log.
func (l *AuditLog) Add(r AuditRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// Len returns the number of records.
func (l *AuditLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns a copy of the records in append order.
func (l *AuditLog) Records() []AuditRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditRecord, len(l.recs))
	copy(out, l.recs)
	return out
}

// WriteText renders the audit trail as a human-readable timeline, one
// line per record:
//
//	t=   412.0s  disk-3      nominal -> perf-faulty  [window]  window-median=31.2 vs 0.50 x peer-median=98.4 (margin -17.9)
func (l *AuditLog) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	recs := l.Records()
	if len(recs) == 0 {
		fmt.Fprintln(bw, "(no verdict transitions recorded)")
		return bw.Flush()
	}
	for _, r := range recs {
		var action string
		switch r.Kind {
		case AuditDebounce:
			action = fmt.Sprintf("%s -> %s suppressed (streak %d/%d)", r.From, r.To, r.Streak, r.Need)
		case AuditLatch:
			action = fmt.Sprintf("%s -> %s LATCHED", r.From, r.To)
		default:
			action = fmt.Sprintf("%s -> %s", r.From, r.To)
			if r.Need > 0 {
				action += fmt.Sprintf(" (streak %d/%d)", r.Streak, r.Need)
			}
		}
		fmt.Fprintf(bw, "t=%8.1fs  %-12s  %-46s  [%s]  %s\n",
			r.Time, r.Component, action, r.Detector, r.Evidence)
	}
	return bw.Flush()
}

// WriteJSON dumps the audit trail as a JSON array, byte-deterministic for
// a given record sequence. NaN/Inf evidence fields export as null.
func (l *AuditLog) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	recs := l.Records()
	bw.WriteString("[")
	for i, r := range recs {
		if i == 0 {
			bw.WriteString("\n")
		} else {
			bw.WriteString(",\n")
		}
		bw.WriteString(`{"time":`)
		WriteJSONNum(bw, r.Time)
		bw.WriteString(`,"component":`)
		bw.WriteString(strconv.Quote(r.Component))
		bw.WriteString(`,"detector":`)
		bw.WriteString(strconv.Quote(r.Detector))
		bw.WriteString(`,"kind":`)
		bw.WriteString(strconv.Quote(r.Kind))
		bw.WriteString(`,"from":`)
		bw.WriteString(strconv.Quote(r.From))
		bw.WriteString(`,"to":`)
		bw.WriteString(strconv.Quote(r.To))
		bw.WriteString(`,"streak":`)
		bw.WriteString(strconv.Itoa(r.Streak))
		bw.WriteString(`,"need":`)
		bw.WriteString(strconv.Itoa(r.Need))
		bw.WriteString(`,"evidence":{"signal":`)
		bw.WriteString(strconv.Quote(r.Evidence.Signal))
		bw.WriteString(`,"observed":`)
		WriteJSONNum(bw, r.Evidence.Observed)
		bw.WriteString(`,"ref_kind":`)
		bw.WriteString(strconv.Quote(r.Evidence.RefKind))
		bw.WriteString(`,"reference":`)
		WriteJSONNum(bw, r.Evidence.Reference)
		bw.WriteString(`,"threshold":`)
		WriteJSONNum(bw, r.Evidence.Threshold)
		bw.WriteString(`,"margin":`)
		WriteJSONNum(bw, r.Evidence.Margin)
		bw.WriteString(`}}`)
	}
	if len(recs) > 0 {
		bw.WriteString("\n")
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

// WriteJSONNum renders a float as a JSON number in shortest round-trip
// form; NaN and Inf (not representable in JSON) become null. Every
// artifact writer (trace, registry, audit, profile, oracle) shares it.
func WriteJSONNum(bw *bufio.Writer, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		bw.WriteString("null")
		return
	}
	bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}
