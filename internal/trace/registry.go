package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key=value dimension on a registered metric.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindSeries
	kindMeter
	kindOracle
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	case kindSeries:
		return "series"
	case kindOracle:
		return "oracle"
	default:
		return "meter"
	}
}

type entry struct {
	kind   metricKind
	name   string
	labels []Label
	key    string

	c *Counter
	h *Histogram
	s *Series
	m *AvailabilityMeter
	o *OracleStat
}

// OracleStat is one predicted-vs-observed conformance result: an analytic
// prediction, the simulated observation, their relative residual, and the
// tolerance band the residual was judged against. The oracle plane
// records one per conformance row so the registry's CSV/JSON dumps carry
// the full predicted-vs-simulated record next to the raw metrics.
type OracleStat struct {
	predicted, observed, residual, band float64
}

// Set records the conformance result. residual is the relative residual
// (observed/predicted - 1, or observed - predicted when the prediction is
// zero) and band is the tolerance it was judged against.
func (o *OracleStat) Set(predicted, observed, residual, band float64) {
	o.predicted, o.observed, o.residual, o.band = predicted, observed, residual, band
}

// Predicted returns the analytic prediction.
func (o *OracleStat) Predicted() float64 { return o.predicted }

// Observed returns the simulated observation.
func (o *OracleStat) Observed() float64 { return o.observed }

// Residual returns the recorded residual.
func (o *OracleStat) Residual() float64 { return o.residual }

// Band returns the tolerance band.
func (o *OracleStat) Band() float64 { return o.band }

// Registry is a named, labeled metrics registry. Experiments register
// counters, histograms, series and availability meters against it; the
// runner then dumps everything as JSON or CSV per experiment. Lookups are
// get-or-create: asking for the same name+labels twice returns the same
// instrument, so components need not coordinate registration.
//
// A nil *Registry hands out fresh unregistered instruments, so metric
// call sites need no enabled/disabled branching.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byKey   map[string]*entry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// metricKey renders name{k=v,...} with labels sorted by key — the
// registry identity and the stable export order.
func metricKey(name string, labels []Label) (string, []Label) {
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	if len(sorted) == 0 {
		return name, sorted
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String(), sorted
}

func (r *Registry) lookup(kind metricKind, name string, labels []Label) *entry {
	key, sorted := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("trace: metric %q already registered as %s, requested as %s", key, e.kind, kind))
		}
		return e
	}
	e := &entry{kind: kind, name: name, labels: sorted, key: key}
	r.entries = append(r.entries, e)
	r.byKey[key] = e
	return e
}

// Counter returns the counter registered under name+labels, creating it
// on first use. A nil registry returns a fresh unregistered counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	e := r.lookup(kindCounter, name, labels)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Histogram returns the histogram registered under name+labels, creating
// it with the given bucket layout on first use (later calls reuse the
// existing layout). A nil registry returns a fresh unregistered histogram.
func (r *Registry) Histogram(name string, lo, hi float64, buckets int, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram(lo, hi, buckets)
	}
	e := r.lookup(kindHistogram, name, labels)
	if e.h == nil {
		e.h = NewHistogram(lo, hi, buckets)
	}
	return e.h
}

// Series returns the series registered under name+labels, creating it on
// first use. A nil registry returns a fresh unregistered series.
func (r *Registry) Series(name string, labels ...Label) *Series {
	if r == nil {
		return &Series{}
	}
	e := r.lookup(kindSeries, name, labels)
	if e.s == nil {
		e.s = &Series{}
	}
	return e.s
}

// Meter returns the availability meter registered under name+labels,
// creating it with the given threshold on first use. A nil registry
// returns a fresh unregistered meter.
func (r *Registry) Meter(name string, threshold float64, labels ...Label) *AvailabilityMeter {
	if r == nil {
		return NewAvailabilityMeter(threshold)
	}
	e := r.lookup(kindMeter, name, labels)
	if e.m == nil {
		e.m = NewAvailabilityMeter(threshold)
	}
	return e.m
}

// Oracle returns the oracle conformance stat registered under name+labels,
// creating it on first use. A nil registry returns a fresh unregistered
// stat.
func (r *Registry) Oracle(name string, labels ...Label) *OracleStat {
	if r == nil {
		return &OracleStat{}
	}
	e := r.lookup(kindOracle, name, labels)
	if e.o == nil {
		e.o = &OracleStat{}
	}
	return e.o
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// VisitSeries calls fn for every registered series with the given name,
// in deterministic sorted-key order. The profiling plane uses this to
// fold sampled queue-depth and backlog series back into per-component
// summaries without reparsing the exported JSON.
func (r *Registry) VisitSeries(name string, fn func(labels []Label, s *Series)) {
	if r == nil {
		return
	}
	for _, e := range r.sortedEntries() {
		if e.kind == kindSeries && e.name == name && e.s != nil {
			fn(e.labels, e.s)
		}
	}
}

// sortedEntries snapshots the entries ordered by key for export.
func (r *Registry) sortedEntries() []*entry {
	r.mu.Lock()
	out := make([]*entry, len(r.entries))
	copy(out, r.entries)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// WriteJSON dumps every registered instrument, grouped by kind and sorted
// by key, as byte-deterministic JSON (NaN/Inf export as null).
func (r *Registry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var entries []*entry
	if r != nil {
		entries = r.sortedEntries()
	}
	writeGroup := func(title string, kind metricKind, body func(*entry)) {
		bw.WriteString(strconv.Quote(title))
		bw.WriteString(":[")
		first := true
		for _, e := range entries {
			if e.kind != kind {
				continue
			}
			if first {
				bw.WriteString("\n")
				first = false
			} else {
				bw.WriteString(",\n")
			}
			bw.WriteString(`{"name":`)
			bw.WriteString(strconv.Quote(e.name))
			bw.WriteString(`,"labels":{`)
			for i, l := range e.labels {
				if i > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(strconv.Quote(l.Key))
				bw.WriteByte(':')
				bw.WriteString(strconv.Quote(l.Value))
			}
			bw.WriteString(`}`)
			body(e)
			bw.WriteString(`}`)
		}
		if !first {
			bw.WriteString("\n")
		}
		bw.WriteString("]")
	}
	bw.WriteString("{")
	writeGroup("counters", kindCounter, func(e *entry) {
		bw.WriteString(`,"value":`)
		bw.WriteString(strconv.FormatUint(e.c.Value(), 10))
	})
	bw.WriteString(",\n")
	writeGroup("histograms", kindHistogram, func(e *entry) {
		h := e.h
		bw.WriteString(`,"count":`)
		bw.WriteString(strconv.FormatUint(h.Count(), 10))
		bw.WriteString(`,"nan_count":`)
		bw.WriteString(strconv.FormatUint(h.NaNCount(), 10))
		bw.WriteString(`,"sum":`)
		WriteJSONNum(bw, h.Sum())
		bw.WriteString(`,"mean":`)
		WriteJSONNum(bw, h.Mean())
		bw.WriteString(`,"min":`)
		WriteJSONNum(bw, h.Min())
		bw.WriteString(`,"max":`)
		WriteJSONNum(bw, h.Max())
		bw.WriteString(`,"p50":`)
		WriteJSONNum(bw, h.Quantile(0.5))
		bw.WriteString(`,"p99":`)
		WriteJSONNum(bw, h.Quantile(0.99))
	})
	bw.WriteString(",\n")
	writeGroup("series", kindSeries, func(e *entry) {
		s := e.s
		bw.WriteString(`,"times":[`)
		for i, t := range s.Times {
			if i > 0 {
				bw.WriteByte(',')
			}
			WriteJSONNum(bw, t)
		}
		bw.WriteString(`],"values":[`)
		for i, v := range s.Values {
			if i > 0 {
				bw.WriteByte(',')
			}
			WriteJSONNum(bw, v)
		}
		bw.WriteString(`]`)
	})
	bw.WriteString(",\n")
	writeGroup("meters", kindMeter, func(e *entry) {
		m := e.m
		bw.WriteString(`,"threshold":`)
		WriteJSONNum(bw, m.Threshold())
		bw.WriteString(`,"offered":`)
		bw.WriteString(strconv.FormatUint(m.OfferedCount(), 10))
		bw.WriteString(`,"completed":`)
		bw.WriteString(strconv.FormatUint(m.CompletedCount(), 10))
		bw.WriteString(`,"availability":`)
		WriteJSONNum(bw, m.Availability())
		bw.WriteString(`,"latency_mean":`)
		WriteJSONNum(bw, m.Latency().Mean())
		bw.WriteString(`,"latency_p99":`)
		WriteJSONNum(bw, m.Latency().Quantile(0.99))
	})
	bw.WriteString(",\n")
	writeGroup("oracles", kindOracle, func(e *entry) {
		o := e.o
		bw.WriteString(`,"predicted":`)
		WriteJSONNum(bw, o.Predicted())
		bw.WriteString(`,"observed":`)
		WriteJSONNum(bw, o.Observed())
		bw.WriteString(`,"residual":`)
		WriteJSONNum(bw, o.Residual())
		bw.WriteString(`,"band":`)
		WriteJSONNum(bw, o.Band())
	})
	bw.WriteString("}\n")
	return bw.Flush()
}

// WriteCSV dumps every registered instrument in long format
// (kind,name,labels,field,time,value), one row per scalar field and one
// row per series sample, sorted by key. The labels column joins sorted
// pairs with ';'.
func (r *Registry) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("kind,name,labels,field,time,value\n")
	var entries []*entry
	if r != nil {
		entries = r.sortedEntries()
	}
	row := func(e *entry, field string, t, v string) {
		bw.WriteString(e.kind.String())
		bw.WriteByte(',')
		bw.WriteString(csvField(e.name))
		bw.WriteByte(',')
		parts := make([]string, len(e.labels))
		for i, l := range e.labels {
			parts[i] = l.Key + "=" + l.Value
		}
		bw.WriteString(csvField(strings.Join(parts, ";")))
		bw.WriteByte(',')
		bw.WriteString(field)
		bw.WriteByte(',')
		bw.WriteString(t)
		bw.WriteByte(',')
		bw.WriteString(v)
		bw.WriteByte('\n')
	}
	num := func(v float64) string {
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for _, e := range entries {
		switch e.kind {
		case kindCounter:
			row(e, "value", "", strconv.FormatUint(e.c.Value(), 10))
		case kindHistogram:
			h := e.h
			row(e, "count", "", strconv.FormatUint(h.Count(), 10))
			row(e, "sum", "", num(h.Sum()))
			row(e, "mean", "", num(h.Mean()))
			row(e, "min", "", num(h.Min()))
			row(e, "max", "", num(h.Max()))
			row(e, "p50", "", num(h.Quantile(0.5)))
			row(e, "p99", "", num(h.Quantile(0.99)))
		case kindSeries:
			for i := range e.s.Times {
				row(e, "sample", num(e.s.Times[i]), num(e.s.Values[i]))
			}
		case kindMeter:
			m := e.m
			row(e, "threshold", "", num(m.Threshold()))
			row(e, "offered", "", strconv.FormatUint(m.OfferedCount(), 10))
			row(e, "completed", "", strconv.FormatUint(m.CompletedCount(), 10))
			row(e, "availability", "", num(m.Availability()))
			row(e, "latency_mean", "", num(m.Latency().Mean()))
			row(e, "latency_p99", "", num(m.Latency().Quantile(0.99)))
		case kindOracle:
			o := e.o
			row(e, "predicted", "", num(o.Predicted()))
			row(e, "observed", "", num(o.Observed()))
			row(e, "residual", "", num(o.Residual()))
			row(e, "band", "", num(o.Band()))
		}
	}
	return bw.Flush()
}

// csvField quotes a field when it contains a comma, quote, or newline.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
