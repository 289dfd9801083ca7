package cluster

import (
	"strings"
	"testing"

	"failstutter/internal/sim"
)

func TestBSPCompletesAllWork(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) BSPReport {
		return RunBSP(NewPool(ss, 4, q), BSPParams{Rounds: 3, UnitsPerWorkerRound: 40})
	})
	var sum float64
	for _, u := range r.PerWorkerUnits {
		sum += u
	}
	if sum != 3*4*40 {
		t.Fatalf("executed %v units, want %d", sum, 3*4*40)
	}
	if !strings.Contains(r.String(), "static") {
		t.Fatalf("report string %q", r.String())
	}
	// All healthy: each round is exactly 40q, and each of the 2 later
	// rounds starts at the horizon one lookahead after the barrier clears.
	if want := 3*40*q + 2*L; !near(r.Makespan, want) {
		t.Fatalf("makespan = %v, want %v", r.Makespan, want)
	}
}

func TestBSPElasticCompletesAllWork(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) BSPReport {
		return RunBSP(NewPool(ss, 4, q), BSPParams{Rounds: 3, UnitsPerWorkerRound: 40, Elastic: true})
	})
	var sum float64
	for _, u := range r.PerWorkerUnits {
		sum += u
	}
	if sum != 3*4*40 {
		t.Fatalf("executed %v units, want %d", sum, 3*4*40)
	}
	if !strings.Contains(r.String(), "elastic") {
		t.Fatalf("report string %q", r.String())
	}
}

func TestBSPBarrierGatedBySlowWorker(t *testing.T) {
	// One worker at quarter speed: static BSP pays exactly 4x on every
	// round; elastic BSP redistributes within rounds and stays close to
	// healthy.
	run := func(elastic bool) sim.Duration {
		return acrossShards(t, func(ss *sim.ShardedSimulator) BSPReport {
			p := NewPool(ss, 4, q)
			p.Workers()[0].SetSpeed(0.25)
			return RunBSP(p, BSPParams{Rounds: 4, UnitsPerWorkerRound: 60, Elastic: elastic, Grain: 20})
		}).Makespan
	}
	static := run(false)
	elastic := run(true)
	// 4 rounds of 60 units at quarter speed, the 3 later ones starting one
	// lookahead after their barrier clears.
	if want := 4*60*q/0.25 + 3*L; !near(static, want) {
		t.Fatalf("static makespan = %v, want exactly %v", static, want)
	}
	if elastic*2 > static {
		t.Fatalf("elastic BSP %v not clearly below static %v with a slow worker",
			elastic, static)
	}
}

func TestBSPElasticSkewsWorkToFastWorkers(t *testing.T) {
	r := acrossShards(t, func(ss *sim.ShardedSimulator) BSPReport {
		p := NewPool(ss, 4, q)
		p.Workers()[0].SetSpeed(0.2)
		return RunBSP(p, BSPParams{Rounds: 2, UnitsPerWorkerRound: 60, Elastic: true, Grain: 20})
	})
	slow := r.PerWorkerUnits[0]
	for i, u := range r.PerWorkerUnits[1:] {
		if slow >= u {
			t.Fatalf("slow worker did %v units, healthy worker %d did %v", slow, i+1, u)
		}
	}
}

// TestBSPDeterministic: static and elastic BSP reports are bitwise
// repeatable and identical at every shard count, with a transient hog
// restored mid-run.
func TestBSPDeterministic(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		run := func(ss *sim.ShardedSimulator) BSPReport {
			p := NewPool(ss, 4, q)
			p.Hog(0, 0.25, 3e-3)
			return RunBSP(p, BSPParams{Rounds: 4, UnitsPerWorkerRound: 60, Elastic: elastic, Grain: 20})
		}
		a, b := acrossShards(t, run), acrossShards(t, run)
		if a.Makespan != b.Makespan {
			t.Fatalf("BSP (elastic %v) not deterministic: %v vs %v", elastic, a.Makespan, b.Makespan)
		}
		for i := range a.PerWorkerUnits {
			if a.PerWorkerUnits[i] != b.PerWorkerUnits[i] {
				t.Fatalf("per-worker units differ at %d: %v vs %v", i, a.PerWorkerUnits[i], b.PerWorkerUnits[i])
			}
		}
	}
}

func TestBSPInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid BSP params did not panic")
		}
	}()
	RunBSP(NewPool(newSharded(1), 2, q), BSPParams{})
}
