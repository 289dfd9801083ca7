package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("disk-0")
	if track != 0 {
		t.Fatalf("first track id = %d, want 0", track)
	}
	if again := tr.Track("disk-0"); again != track {
		t.Fatalf("re-registering track gave %d, want %d", again, track)
	}
	root := tr.Begin(track, "write", "disk", 0, 1.0)
	child := tr.BeginArg(track, "service", "station", root, 1.5, 42)
	tr.End(child, 2.0)
	tr.End(root, 2.5)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("len(spans) = %d, want 2", len(spans))
	}
	if spans[0].Name != "write" || spans[0].Start != 1.0 || spans[0].End != 2.5 {
		t.Fatalf("root span = %+v", spans[0])
	}
	if spans[1].Parent != root || spans[1].Arg != 42 || !spans[1].HasArg {
		t.Fatalf("child span = %+v", spans[1])
	}
}

// TestTracerReserveTracks checks that reserving tracks changes no id or
// order — names registered before and after keep their ids, and a
// repeated name still shares its track — and that registering the
// reserved tracks allocates nothing.
func TestTracerReserveTracks(t *testing.T) {
	tr := NewTracer()
	if tr.Track("early") != 0 {
		t.Fatal("first track is not 0")
	}
	const n = 256
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("d%07d", i)
	}
	tr.ReserveTracks(n)
	// One pass over all n names, counted whole: growth is amortized, so
	// a per-call average would round it away.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, name := range names {
		if id := tr.Track(name); id != TrackID(i+1) {
			t.Fatalf("track %s = %d, want %d", name, id, i+1)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("registering %d reserved tracks allocated %d times, want 0", n, allocs)
	}
	if tr.Track("early") != 0 || tr.Track(names[7]) != 8 {
		t.Fatal("reserving moved an existing track id")
	}
	if got := tr.Tracks(); len(got) != n+1 || got[0] != "early" || got[n] != names[n-1] {
		t.Fatalf("Tracks = %d names, first %q, last %q", len(got), got[0], got[len(got)-1])
	}
	var none *Tracer
	none.ReserveTracks(n) // nil-safe, as every Tracer method
}

// TestShardTracersOwnTheirCacheLines checks that per-shard collectors
// allocated back to back never share a cache line: each shard writes its
// own collector's mutex on every span, so a shared line would bounce
// between the shards' cores.
func TestShardTracersOwnTheirCacheLines(t *testing.T) {
	const line = 64
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the padding is sized for 64-bit pointers")
	}
	size := unsafe.Sizeof(Tracer{})
	if size%line != 0 {
		t.Fatalf("Tracer is %d bytes, not a whole number of %d-byte cache lines", size, line)
	}
	owner := map[uintptr]int{}
	shards := make([]*Tracer, 8)
	for i := range shards {
		shards[i] = NewShardTracer(i)
		start := uintptr(unsafe.Pointer(shards[i]))
		for l := start / line; l <= (start+size-1)/line; l++ {
			if j, ok := owner[l]; ok {
				t.Fatalf("shard tracers %d and %d share the cache line at %#x", j, i, l*line)
			}
			owner[l] = i
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	track := tr.Track("x")
	id := tr.Begin(track, "a", "b", 0, 0)
	if id != 0 {
		t.Fatalf("nil tracer Begin = %d, want 0", id)
	}
	tr.End(id, 1)
	tr.Instant(track, "i", "c", 2)
	tr.Flush(3)
	tr.Rebase(4)
	if tr.Len() != 0 || tr.Spans() != nil || tr.Tracks() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestTracerEndIsIdempotentAndIgnoresZero(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	id := tr.Begin(track, "a", "c", 0, 1)
	tr.End(0, 5)   // no-op
	tr.End(999, 5) // unknown: no-op
	tr.End(id, 2)  // closes
	tr.End(id, 9)  // already closed: no-op
	if got := tr.Spans()[0].End; got != 2 {
		t.Fatalf("End = %v, want 2 (second End ignored)", got)
	}
}

func TestTracerFlushClosesOpenSpans(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	open := tr.Begin(track, "abandoned", "c", 0, 1)
	closed := tr.Begin(track, "done", "c", 0, 1)
	tr.End(closed, 3)
	if !tr.Spans()[0].Open() {
		t.Fatal("span not open before flush")
	}
	tr.Flush(10)
	spans := tr.Spans()
	if spans[0].End != 10 {
		t.Fatalf("flushed End = %v, want 10", spans[0].End)
	}
	if spans[1].End != 3 {
		t.Fatalf("already-closed span End = %v, want 3 (flush must not touch it)", spans[1].End)
	}
	_ = open
}

func TestTracerRebaseLaysRunsOutSequentially(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	a := tr.Begin(track, "run1", "c", 0, 0)
	tr.End(a, 5)
	tr.Rebase(6) // second sub-run restarts its clock at 0
	b := tr.Begin(track, "run2", "c", 0, 0)
	tr.End(b, 5)
	spans := tr.Spans()
	if spans[0].Start != 0 || spans[0].End != 5 {
		t.Fatalf("run1 = [%v, %v]", spans[0].Start, spans[0].End)
	}
	if spans[1].Start != 6 || spans[1].End != 11 {
		t.Fatalf("run2 = [%v, %v], want [6, 11]", spans[1].Start, spans[1].End)
	}
}

func TestTracerInstant(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	tr.Instant(track, "fail", "station", 7)
	s := tr.Spans()[0]
	if !s.Instant || s.Start != 7 || s.End != 7 {
		t.Fatalf("instant = %+v", s)
	}
	if s.Open() {
		t.Fatal("instant reported open")
	}
}

func TestTracerConcurrentUse(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := tr.Track("worker")
			for i := 0; i < 100; i++ {
				id := tr.Begin(track, "task", "cluster", 0, float64(i))
				tr.End(id, float64(i)+0.5)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("len = %d, want 800", tr.Len())
	}
	for _, s := range tr.Spans() {
		if s.Open() {
			t.Fatalf("span %d still open", s.ID)
		}
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer()
	disk := tr.Track("disk-0")
	pair := tr.Track(`pair "0"`) // quote in a track name must be escaped
	w := tr.Begin(pair, "mirrored-write", "raid", 0, 0.001)
	s := tr.BeginArg(disk, "service", "station", w, 0.002, 7)
	tr.Instant(disk, "fail", "station", 0.003)
	tr.End(s, 0.004)
	tr.End(w, 0.005)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 thread_name metadata + 2 complete + 1 instant
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e.Ph)
	}
	if got := strings.Join(phases, ""); got != "MMXXi" && got != "MMXiX" {
		t.Fatalf("phase sequence = %q", got)
	}
	// The service span carries its parent link and arg in args, in µs ts.
	svc := doc.TraceEvents[3]
	if svc.Name != "service" || svc.Ts != 2000 || svc.Dur != 2000 {
		t.Fatalf("service event = %+v", svc)
	}
	if svc.Args["parent"].(float64) != float64(w) || svc.Args["arg"].(float64) != 7 {
		t.Fatalf("service args = %+v", svc.Args)
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	build := func() *bytes.Buffer {
		tr := NewTracer()
		a := tr.Track("a")
		for i := 0; i < 50; i++ {
			id := tr.Begin(a, "op", "c", 0, float64(i)*0.1)
			tr.End(id, float64(i)*0.1+0.05)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(build().Bytes(), build().Bytes()) {
		t.Fatal("chrome trace output not byte-identical across identical runs")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[]}` + "\n"
	if buf.String() != want {
		t.Fatalf("empty trace = %q, want %q", buf.String(), want)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// A nil tracer exports the same valid empty document.
	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("nil trace = %q", buf.String())
	}
}

func TestWriteChromeTraceNoScientificNotation(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	// 2000 s → 2e9 µs: naive %v formatting would print "2e+09".
	id := tr.Begin(track, "long", "c", 0, 0)
	tr.End(id, 2000)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":2000000000`) {
		t.Fatalf("dur not in plain decimal: %s", buf.String())
	}
}

func TestWriteChromeTraceUnflushedOpenSpan(t *testing.T) {
	tr := NewTracer()
	track := tr.Track("t")
	tr.Begin(track, "open", "c", 0, 1)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatalf("NaN leaked into JSON: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"dur":0`) {
		t.Fatalf("open span should export zero duration: %s", buf.String())
	}
}

func TestSpanOpen(t *testing.T) {
	s := Span{End: math.NaN()}
	if !s.Open() {
		t.Fatal("NaN-end span not open")
	}
	s.End = 1
	if s.Open() {
		t.Fatal("closed span reported open")
	}
}
