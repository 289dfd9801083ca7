package sim

import "failstutter/internal/trace"

// TelemetrySinks names the destination collectors a traced sharded run
// folds into. Any sink may be nil to leave that plane off; the off path
// costs components exactly what an untraced run costs (one nil check,
// zero allocations).
//
// A Tracer in flight-recorder mode bounds every per-shard tracer the
// same way (trace.Tracer.FlightRecorder): open spans are tracked
// exactly, completed spans pass through the bounded deterministic ring +
// reservoir selection instead of being retained wholesale, and the merge
// reproduces the single-collector selection. This is how the fleet
// experiments trace 2^20 disks in bounded memory.
type TelemetrySinks struct {
	Tracer  *trace.Tracer
	Metrics *trace.Registry
	Audit   *trace.AuditLog
}

// shardTelemetry is the per-shard collector set behind SetTelemetry.
// Each slice is either nil (plane off) or has one collector per shard;
// shard i's components append to index i without any cross-shard
// coordination, which keeps the traced window as lock-free as the
// untraced one.
type shardTelemetry struct {
	sinks   TelemetrySinks
	tracers []*trace.Tracer
	metrics []*trace.Registry
	audits  []*trace.AuditLog
}

// SetTelemetry installs per-shard telemetry collectors feeding the given
// destination sinks. Components placed on shard i record into that
// shard's collectors (ShardTracer/ShardMetrics/ShardAudit); at the end
// of the run MergeTelemetry folds everything into the sinks in canonical
// placement-invariant order, so the exported artifacts are byte-identical
// at any shard count.
//
// Call it before building components (NewSwitch, NewPool and NewDHT take
// their shard's collectors when constructed) and outside the parallel
// window.
func (ss *ShardedSimulator) SetTelemetry(sinks TelemetrySinks) {
	if ss.inWindow {
		panic("sim: SetTelemetry inside the parallel window")
	}
	tel := &shardTelemetry{sinks: sinks}
	k := len(ss.shards)
	if sinks.Tracer != nil {
		rc, bounded := sinks.Tracer.FlightRecorder()
		tel.tracers = make([]*trace.Tracer, k)
		for i := range tel.tracers {
			t := trace.NewShardTracer(i)
			if bounded {
				t.SetFlightRecorder(rc)
			}
			tel.tracers[i] = t
		}
	}
	if sinks.Metrics != nil {
		tel.metrics = make([]*trace.Registry, k)
		for i := range tel.metrics {
			tel.metrics[i] = trace.NewRegistry()
		}
	}
	if sinks.Audit != nil {
		tel.audits = make([]*trace.AuditLog, k)
		for i := range tel.audits {
			tel.audits[i] = trace.NewAuditLog()
		}
	}
	ss.tel = tel
}

// ShardTracer returns shard i's trace collector, or nil when tracing is
// off — components pass it straight to their stations' SetTracer, whose
// nil path is the 0-alloc disabled path.
func (ss *ShardedSimulator) ShardTracer(i int) *trace.Tracer {
	if ss.tel == nil || ss.tel.tracers == nil {
		return nil
	}
	return ss.tel.tracers[i]
}

// ShardMetrics returns shard i's metrics collector, or nil when the
// metrics plane is off (a nil *Registry hands out unregistered
// instruments, so probe call sites need no branching).
func (ss *ShardedSimulator) ShardMetrics(i int) *trace.Registry {
	if ss.tel == nil || ss.tel.metrics == nil {
		return nil
	}
	return ss.tel.metrics[i]
}

// ShardAudit returns shard i's audit collector, or nil when auditing is
// off.
func (ss *ShardedSimulator) ShardAudit(i int) *trace.AuditLog {
	if ss.tel == nil || ss.tel.audits == nil {
		return nil
	}
	return ss.tel.audits[i]
}

// MergeTelemetry flushes every per-shard tracer and folds all per-shard
// collectors into the destination sinks, then detaches them: a second
// call is a no-op, so a run cannot double-count. It returns the flush
// time — the maximum shard clock, which is the placement-invariant
// choice: after RunUntil(limit) every clock equals the limit, and after
// a drained Run the clocks differ per shard by partition, so only the
// global maximum (the virtual time the whole simulation reached) reads
// the same at any shard count.
//
// Call it after the run, outside the parallel window; experiments then
// Rebase the destination tracer past the returned time before the next
// sub-run.
func (ss *ShardedSimulator) MergeTelemetry() Time {
	if ss.inWindow {
		panic("sim: MergeTelemetry inside the parallel window")
	}
	end := Time(0)
	for _, s := range ss.shards {
		if t := s.Now(); t > end {
			end = t
		}
	}
	tel := ss.tel
	if tel == nil {
		return end
	}
	ss.tel = nil
	if tel.tracers != nil {
		for _, t := range tel.tracers {
			t.Flush(end)
		}
		tel.sinks.Tracer.Merge(tel.tracers...)
	}
	if tel.metrics != nil {
		tel.sinks.Metrics.Merge(tel.metrics...)
	}
	if tel.audits != nil {
		tel.sinks.Audit.Merge(tel.audits...)
	}
	return end
}
