package cluster

import (
	"strings"
	"testing"

	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// countSpans tallies closed interval spans and instants by name for the
// given category.
func countSpans(tr *trace.Tracer, cat string) map[string]int {
	out := map[string]int{}
	for _, sp := range tr.Spans() {
		if sp.Cat == cat {
			out[sp.Name]++
		}
	}
	return out
}

// shardSpans returns every span the coordinator's per-shard collectors
// hold. Read it before MergeTelemetry, whose flush closes any span still
// open, so a span a component forgot to end is still seen open here.
func shardSpans(ss *sim.ShardedSimulator) []trace.Span {
	var out []trace.Span
	for i := 0; i < ss.Shards(); i++ {
		out = append(out, ss.ShardTracer(i).Spans()...)
	}
	return out
}

func TestBSPSuperstepSpans(t *testing.T) {
	got := acrossShards(t, func(ss *sim.ShardedSimulator) map[string]int {
		tr := trace.NewTracer()
		ss.SetTelemetry(sim.TelemetrySinks{Tracer: tr})
		p := NewPool(ss, 4, 50e-6)
		RunBSP(p, BSPParams{Rounds: 3, UnitsPerWorkerRound: 20})
		// Every superstep span must be closed at its barrier: an open span
		// would report NaN end and break the critical-path walk.
		for _, sp := range shardSpans(ss) {
			if sp.Cat == "bsp" && !(sp.End >= sp.Start) {
				t.Fatalf("superstep span %q left open (end %v)", sp.Name, sp.End)
			}
		}
		ss.MergeTelemetry()
		return countSpans(tr, "bsp")
	})
	for _, name := range []string{"superstep-0", "superstep-1", "superstep-2"} {
		if got[name] != 1 {
			t.Fatalf("span %q recorded %d times, want 1 (all: %v)", name, got[name], got)
		}
	}
}

func TestDHTPutSpansAndHintInstants(t *testing.T) {
	type result struct {
		spans       map[string]int
		puts, hints int64
	}
	r := acrossShards(t, func(ss *sim.ShardedSimulator) result {
		tr := trace.NewTracer()
		ss.SetTelemetry(sim.TelemetrySinks{Tracer: tr})
		d := NewDHT(ss, DHTParams{
			Nodes: 4, Replication: 2, OpQuantum: opQ,
			Adaptive: true, SampleEvery: 1e-3,
		})
		cancel := d.StartGC(0, 20e-3, 15e-3)
		defer cancel()
		d.RunLoad(4, 100e-3)
		for _, sp := range shardSpans(ss) {
			if sp.Cat == "dht" && sp.Name == "put" && !(sp.End >= sp.Start) {
				t.Fatalf("put span %d left open (end %v)", sp.ID, sp.End)
			}
		}
		ss.MergeTelemetry()
		return result{countSpans(tr, "dht"), d.Puts(), d.Hints()}
	})
	if int64(r.spans["put"]) != r.puts {
		t.Fatalf("recorded %d put spans for %d acknowledged puts", r.spans["put"], r.puts)
	}
	if r.hints == 0 {
		t.Fatal("scenario produced no hinted handoffs; test is vacuous")
	}
	if r.spans["hinted-handoff"] == 0 {
		t.Fatal("no hinted-handoff instants despite hints > 0")
	}
}

func TestDHTAuditRecordsFlagTransitions(t *testing.T) {
	acrossShards(t, func(ss *sim.ShardedSimulator) string {
		log := trace.NewAuditLog()
		ss.SetTelemetry(sim.TelemetrySinks{Audit: log})
		d := NewDHT(ss, DHTParams{
			Nodes: 4, Replication: 2, OpQuantum: opQ,
			Adaptive: true, SampleEvery: 1e-3,
		})
		cancel := d.StartGC(0, 20e-3, 15e-3)
		d.RunLoad(8, 150e-3)
		cancel()
		d.Settle()
		ss.MergeTelemetry()
		recs := log.Records()
		var sawFlag, sawRecover bool
		for _, r := range recs {
			if r.Component != "node-0" || r.Detector != "peer-relative" {
				continue
			}
			if r.From == "nominal" && strings.Contains(r.To, "perf") {
				sawFlag = true
				if r.Evidence.Signal != "sample-rate" {
					t.Fatalf("flag record carries evidence signal %q, want sample-rate", r.Evidence.Signal)
				}
			}
			if strings.Contains(r.From, "perf") && r.To == "nominal" {
				sawRecover = true
			}
		}
		if !sawFlag {
			t.Fatalf("audit trail missing node-0 nominal -> perf-faulty transition (records: %d)", len(recs))
		}
		if !sawRecover {
			t.Fatalf("audit trail missing node-0 recovery transition (records: %d)", len(recs))
		}
		var sb strings.Builder
		if err := log.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	})
}

func TestSchedulerInstants(t *testing.T) {
	// Reissue under a mid-job stall must emit "reissue" instants.
	type result struct {
		spans      map[string]int
		duplicates int64
	}
	r := acrossShards(t, func(ss *sim.ShardedSimulator) result {
		tr := trace.NewTracer()
		ss.SetTelemetry(sim.TelemetrySinks{Tracer: tr})
		p := NewPool(ss, 4, q)
		p.SetSpeedAt(0, 10e-3, 0.02)
		rep := Reissue{TimeoutFactor: 3}.Run(p, UniformTasks(60, 20))
		ss.MergeTelemetry()
		return result{countSpans(tr, "sched"), rep.Duplicates}
	})
	if r.duplicates == 0 {
		t.Fatal("reissue scenario launched no duplicates; test is vacuous")
	}
	if r.spans["reissue"]+r.spans["clone"] == 0 {
		t.Fatalf("no reissue/clone instants recorded (spans: %v)", r.spans)
	}

	// Detect-avoid under a degraded worker must emit a "migrate" instant.
	migrates := acrossShards(t, func(ss *sim.ShardedSimulator) int {
		tr := trace.NewTracer()
		ss.SetTelemetry(sim.TelemetrySinks{Tracer: tr})
		p := NewPool(ss, 4, q)
		p.Workers()[0].SetSpeed(0.1)
		DetectAvoid{}.Run(p, UniformTasks(60, 40))
		ss.MergeTelemetry()
		return countSpans(tr, "sched")["migrate"]
	})
	if migrates == 0 {
		t.Fatal("detect-avoid migration recorded no migrate instant")
	}
}

func TestDetectAvoidAuditRecordsFlag(t *testing.T) {
	p := NewPool(newSharded(1), 4, q)
	log := trace.NewAuditLog()
	p.Workers()[0].SetSpeed(0.1)
	DetectAvoid{Audit: log}.Run(p, UniformTasks(60, 40))
	saw := false
	for _, r := range log.Records() {
		if r.Component == "worker-0" && r.From == "nominal" && strings.Contains(r.To, "perf") {
			saw = true
			if r.Evidence.RefKind != "fleet-median" {
				t.Fatalf("evidence refkind %q, want fleet-median", r.Evidence.RefKind)
			}
		}
	}
	if !saw {
		t.Fatalf("no worker-0 flag transition in audit trail (%d records)", log.Len())
	}
}

// TestClusterTracingDeterministic asserts the traced run is byte-identical
// across repetitions and shard counts — per-shard collectors merged after
// the run — and that tracing does not perturb the simulation.
func TestClusterTracingDeterministic(t *testing.T) {
	type result struct {
		trace    string
		makespan sim.Duration
	}
	run := func(traced bool) func(*sim.ShardedSimulator) result {
		return func(ss *sim.ShardedSimulator) result {
			var tr *trace.Tracer
			if traced {
				tr = trace.NewTracer()
				ss.SetTelemetry(sim.TelemetrySinks{Tracer: tr})
			}
			p := NewPool(ss, 4, q)
			p.SetSpeedAt(0, 10e-3, 0.02)
			rep := Reissue{TimeoutFactor: 3}.Run(p, UniformTasks(60, 20))
			var sb strings.Builder
			if tr != nil {
				ss.MergeTelemetry()
				if err := tr.WriteChromeTrace(&sb); err != nil {
					t.Fatal(err)
				}
			}
			return result{sb.String(), rep.Makespan}
		}
	}
	r1 := acrossShards(t, run(true))
	r2 := acrossShards(t, run(true))
	if r1.trace != r2.trace {
		t.Fatal("traced cluster run not byte-identical across repetitions")
	}
	if !strings.Contains(r1.trace, "reissue") {
		t.Fatal("merged trace carries no reissue instant; test is vacuous")
	}
	r0 := acrossShards(t, run(false))
	if r0.makespan != r1.makespan || r1.makespan != r2.makespan {
		t.Fatalf("tracing perturbed the makespan: %v / %v / %v", r0.makespan, r1.makespan, r2.makespan)
	}
}
