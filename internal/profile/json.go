package profile

import (
	"bufio"
	"io"
	"strconv"

	"failstutter/internal/trace"
)

func jstr(bw *bufio.Writer, s string) {
	bw.WriteString(strconv.Quote(s))
}

func jint(bw *bufio.Writer, v int64) {
	bw.WriteString(strconv.FormatInt(v, 10))
}

// RunMeta identifies the run an artifact was derived from: the seed and
// workload scale that determine its virtual-time content, plus the
// parallelism (shard count, GOMAXPROCS, CPU count) it executed under —
// stamped into every artifact header the way fstutter-bench/1 already
// records them. The parallelism fields are omitted when zero, so readers
// of artifacts that predate the stamp (or of artifacts from contexts
// without a resolved shard count) see them as unknown rather than wrong.
type RunMeta struct {
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Shards     int    `json:"shards,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"numcpu,omitempty"`
}

// writeHeader emits the meta fields after a schema tag: seed and quick
// always, the parallelism triple only when known (non-zero), matching the
// fstutter-bench/1 convention.
func (m RunMeta) writeHeader(bw *bufio.Writer) {
	bw.WriteString(`,"seed":`)
	bw.WriteString(strconv.FormatUint(m.Seed, 10))
	bw.WriteString(`,"quick":`)
	bw.WriteString(strconv.FormatBool(m.Quick))
	if m.Shards > 0 {
		bw.WriteString(`,"shards":`)
		bw.WriteString(strconv.Itoa(m.Shards))
	}
	if m.GoMaxProcs > 0 {
		bw.WriteString(`,"gomaxprocs":`)
		bw.WriteString(strconv.Itoa(m.GoMaxProcs))
	}
	if m.NumCPU > 0 {
		bw.WriteString(`,"numcpu":`)
		bw.WriteString(strconv.Itoa(m.NumCPU))
	}
}

// jhist writes a histogram summary object, or null for a nil histogram.
func jhist(bw *bufio.Writer, h *trace.Histogram) {
	if h == nil {
		bw.WriteString("null")
		return
	}
	bw.WriteString(`{"count":`)
	jint(bw, int64(h.Count()))
	bw.WriteString(`,"mean":`)
	trace.WriteJSONNum(bw, h.Mean())
	bw.WriteString(`,"min":`)
	trace.WriteJSONNum(bw, h.Min())
	bw.WriteString(`,"max":`)
	trace.WriteJSONNum(bw, h.Max())
	bw.WriteString(`,"p50":`)
	trace.WriteJSONNum(bw, h.Quantile(0.5))
	bw.WriteString(`,"p99":`)
	trace.WriteJSONNum(bw, h.Quantile(0.99))
	bw.WriteString(`}`)
}

// WriteJSON dumps the full report as byte-deterministic JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"schema":"fstutter-profile/1"`)
	r.Meta.writeHeader(bw)
	bw.WriteString(`,"window":{"start":`)
	trace.WriteJSONNum(bw, r.Start)
	bw.WriteString(`,"end":`)
	trace.WriteJSONNum(bw, r.End)
	bw.WriteString(`,"makespan":`)
	trace.WriteJSONNum(bw, r.Makespan)
	bw.WriteString(`},"critical_path":{"attributed":`)
	trace.WriteJSONNum(bw, r.CriticalLen)
	bw.WriteString(`,"idle":`)
	trace.WriteJSONNum(bw, r.Idle)
	bw.WriteString(`,"shares":[`)
	for i, s := range r.Shares {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(`{"component":`)
		jstr(bw, s.Component)
		bw.WriteString(`,"seconds":`)
		trace.WriteJSONNum(bw, s.Seconds)
		bw.WriteString(`,"fraction":`)
		trace.WriteJSONNum(bw, s.Fraction)
		bw.WriteString(`}`)
	}
	bw.WriteString(`],"segments":[`)
	for i, seg := range r.Segments {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"span":`)
		jint(bw, int64(seg.Span))
		bw.WriteString(`,"track":`)
		jstr(bw, seg.Track)
		bw.WriteString(`,"name":`)
		jstr(bw, seg.Name)
		bw.WriteString(`,"start":`)
		trace.WriteJSONNum(bw, seg.Start)
		bw.WriteString(`,"end":`)
		trace.WriteJSONNum(bw, seg.End)
		bw.WriteString(`}`)
	}
	bw.WriteString(`]},"frames":[`)
	for i, fs := range r.FrameStats {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"frame":`)
		jstr(bw, fs.Frame)
		bw.WriteString(`,"self":`)
		trace.WriteJSONNum(bw, fs.Self)
		bw.WriteString(`,"total":`)
		trace.WriteJSONNum(bw, fs.Total)
		bw.WriteString(`,"count":`)
		jint(bw, int64(fs.Count))
		bw.WriteString(`}`)
	}
	bw.WriteString(`],"components":[`)
	for i := range r.Components {
		c := &r.Components[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"name":`)
		jstr(bw, c.Name)
		bw.WriteString(`,"spans":`)
		jint(bw, int64(c.Spans))
		bw.WriteString(`,"busy":`)
		trace.WriteJSONNum(bw, c.Busy)
		bw.WriteString(`,"utilization":`)
		trace.WriteJSONNum(bw, c.Utilization)
		bw.WriteString(`,"service":`)
		jhist(bw, c.Service)
		bw.WriteString(`,"wait":`)
		jhist(bw, c.Wait)
		bw.WriteString(`,"queue":`)
		if c.Queue == nil {
			bw.WriteString("null")
		} else {
			bw.WriteString(`{"samples":`)
			jint(bw, int64(c.Queue.Samples))
			bw.WriteString(`,"max_depth":`)
			trace.WriteJSONNum(bw, c.Queue.MaxDepth)
			bw.WriteString(`,"mean_depth":`)
			trace.WriteJSONNum(bw, c.Queue.MeanDepth)
			bw.WriteString(`,"max_backlog":`)
			trace.WriteJSONNum(bw, c.Queue.MaxBacklog)
			bw.WriteString(`,"mean_backlog":`)
			trace.WriteJSONNum(bw, c.Queue.MeanBacklog)
			bw.WriteString(`}`)
		}
		bw.WriteString(`}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteJSON dumps the availability analysis as byte-deterministic JSON.
func (r *SLOReport) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"schema":"fstutter-slo/1"`)
	r.Meta.writeHeader(bw)
	bw.WriteString(`,"threshold":`)
	trace.WriteJSONNum(bw, r.Threshold)
	bw.WriteString(`,"auto":`)
	bw.WriteString(strconv.FormatBool(r.Auto))
	bw.WriteString(`,"category":`)
	jstr(bw, r.Category)
	bw.WriteString(`,"offered":`)
	jint(bw, int64(r.Offered))
	bw.WriteString(`,"within":`)
	jint(bw, int64(r.Within))
	bw.WriteString(`,"availability":`)
	trace.WriteJSONNum(bw, r.Availability)
	bw.WriteString(`,"scenarios":[`)
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"label":`)
		jstr(bw, sc.Label)
		bw.WriteString(`,"start":`)
		trace.WriteJSONNum(bw, sc.Start)
		bw.WriteString(`,"end":`)
		trace.WriteJSONNum(bw, sc.End)
		bw.WriteString(`,"offered":`)
		jint(bw, int64(sc.Offered))
		bw.WriteString(`,"within":`)
		jint(bw, int64(sc.Within))
		bw.WriteString(`,"availability":`)
		trace.WriteJSONNum(bw, sc.Availability)
		bw.WriteString(`,"p50":`)
		trace.WriteJSONNum(bw, sc.P50)
		bw.WriteString(`,"p99":`)
		trace.WriteJSONNum(bw, sc.P99)
		bw.WriteString(`,"windows":[`)
		for j, win := range sc.Windows {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`{"start":`)
			trace.WriteJSONNum(bw, win.Start)
			bw.WriteString(`,"end":`)
			trace.WriteJSONNum(bw, win.End)
			bw.WriteString(`,"offered":`)
			jint(bw, int64(win.Offered))
			bw.WriteString(`,"within":`)
			jint(bw, int64(win.Within))
			bw.WriteString(`,"availability":`)
			trace.WriteJSONNum(bw, win.Availability)
			bw.WriteString(`}`)
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
