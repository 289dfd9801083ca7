package experiments

import (
	"fmt"

	"failstutter/internal/device"
	"failstutter/internal/sim"
	"failstutter/internal/workload"
)

// switchWire is the one-way wire latency of the experiment fabrics, and
// with it the sharded coordinator's lookahead: the minimum cross-port
// delay. At 0.1 ms it is ~1% of the smallest message drain time, so the
// handshake cost stays a rounding term in every measured ratio.
const switchWire = 1e-4

// shardedNet builds the coordinator the switch experiments run on —
// always the sharded kernel, at whatever -shards says (1 included), with
// lookahead derived from the fabric's wire latency. Traced runs install
// per-shard telemetry collectors, which the switch built on it records
// into, merged deterministically at the end of each sub-run.
func shardedNet(cfg Config, tel *Telemetry) *sim.ShardedSimulator {
	ss := cfg.newSharded(cfg.ShardCount(), switchWire)
	tel.attachSharded(ss)
	return ss
}

func transposeSwitch(ss *sim.ShardedSimulator, ports int) *device.Switch {
	return device.NewSwitch(ss, device.SwitchParams{
		Ports:       ports,
		LinkRate:    1e6,
		DrainRate:   1e6,
		BufferBytes: 512 * 1024,
		WireLatency: switchWire,
	})
}

func init() {
	register(Experiment{
		ID:    "E10",
		Title: "Slow receivers collapse the all-to-all transpose",
		PaperClaim: "once a receiver falls behind, messages accumulate and " +
			"cause contention, reducing transpose performance by almost a " +
			"factor of three (Brewer & Kuszmaul, Section 2.1.3)",
		Run: runE10,
	})
	register(Experiment{
		ID:    "E11",
		Title: "Switch unfairness under load",
		PaperClaim: "under load, certain routes receive preference; nodes " +
			"behind disfavored links appear slower, causing a 50% slowdown to " +
			"a global transfer (Section 2.1.3)",
		Run: runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Deadlock-recovery freezes",
		PaperClaim: "deadlock-detection hardware triggers and halts all switch " +
			"traffic for two seconds (Section 2.1.3)",
		Run: runE12,
	})
}

func runE10(cfg Config) *Table {
	ports := int(scale(cfg, 8, 16))
	msg := 16 * 1024.0
	t := NewTable("E10", "All-to-all transpose vs slow receivers",
		"one slow receiver cuts aggregate bandwidth ~3x",
		"slow receivers", "receiver speed", "aggregate bandwidth", "slowdown")
	tel := cfg.telemetry()
	t.Telemetry = tel
	base := 0.0
	for _, tc := range []struct {
		slow  int
		speed float64
	}{
		{0, 1}, {1, 0.5}, {1, 0.33}, {1, 0.1}, {2, 0.33}, {4, 0.33},
	} {
		name := fmt.Sprintf("slow%d-%.2f", tc.slow, tc.speed)
		ss := shardedNet(cfg, tel)
		sw := transposeSwitch(ss, ports)
		tel.attachProfileSharded(ss, tel.nextRun(name))
		for i := 0; i < tc.slow; i++ {
			sw.ReceiverComposite(i).Set("slow", tc.speed)
		}
		bw := workload.TransposeBandwidth(ss, sw, msg)
		tel.endSharded(ss)
		cfg.observeBarrier(fmt.Sprintf("transpose-slow%d-%.2f", tc.slow, tc.speed), ss)
		if tc.slow == 0 {
			base = bw
		}
		slowdown := base / bw
		t.AddRow(fmt.Sprintf("%d", tc.slow), fmt.Sprintf("%.0f%%", tc.speed*100),
			mb(bw), fmt.Sprintf("%.2fx", slowdown))
		t.SetMetric(fmt.Sprintf("slowdown_n%d_s%.2f", tc.slow, tc.speed), slowdown)
	}
	return t
}

func runE11(cfg Config) *Table {
	// The Myrinet observation has two parts. First, under load certain
	// routes receive preference, so "the nodes behind disfavored links
	// appear 'slower' to a sender, even though they are fully capable of
	// receiving data at link rate". Second, that distorted signal cost a
	// *global adaptive data transfer* 50%: the application balanced its
	// data across routes according to the rates it observed under
	// contention, so the favored routes were assigned far more than their
	// true share and became the critical path.
	const ports = 5 // 4 measured routes + 1 hot contention port
	t := NewTable("E11", "Switch unfairness misleads adaptive placement",
		"disfavored links appear slower; the misled global transfer slows ~50%",
		"configuration", "observed route rates", "transfer makespan", "vs balanced")

	tel := cfg.telemetry()
	t.Telemetry = tel

	// Phase 1: measure per-route progress while all routes push through a
	// contended port for a fixed window.
	measure := func(unfair bool) []float64 {
		name := "measure-fair"
		if unfair {
			name = "measure-unfair"
		}
		ss := shardedNet(cfg, tel)
		sw := device.NewSwitch(ss, device.SwitchParams{
			Ports: ports, LinkRate: 1e6, DrainRate: 0.4e6, BufferBytes: 32 * 1024,
			WireLatency: switchWire,
		})
		tel.attachProfileSharded(ss, tel.nextRun(name))
		if unfair {
			sw.Sender(0).SetWeight(8)
			sw.Sender(1).SetWeight(8)
		}
		for i := 0; i < 4; i++ {
			var batch []device.Message
			for k := 0; k < 400; k++ {
				batch = append(batch, device.Message{Dst: 4, Size: 8 * 1024})
			}
			sw.Sender(i).Enqueue(batch, nil)
		}
		ss.RunUntil(10)
		tel.endSharded(ss)
		cfg.observeBarrier(name, ss)
		rates := make([]float64, 4)
		for i := range rates {
			rates[i] = sw.Sender(i).BytesSent() / 10
		}
		return rates
	}

	// Phase 2: an adaptive global transfer splits its data across the
	// four routes in proportion to the observed rates; each route then
	// delivers its share at the true (equal) link rate. Makespan is the
	// largest share divided by the true rate.
	const totalBytes = 40e6
	const trueRate = 1e6
	makespan := func(rates []float64) float64 {
		sum := 0.0
		for _, r := range rates {
			sum += r
		}
		worst := 0.0
		for _, r := range rates {
			share := totalBytes * r / sum
			if span := share / trueRate; span > worst {
				worst = span
			}
		}
		return worst
	}
	balanced := totalBytes / 4 / trueRate

	for _, unfair := range []bool{false, true} {
		rates := measure(unfair)
		span := makespan(rates)
		label := "fair arbitration"
		if unfair {
			label = "unfair arbitration"
		}
		rstr := ""
		for i, r := range rates {
			if i > 0 {
				rstr += " / "
			}
			rstr += fmt.Sprintf("%.0f KB/s", r/1e3)
		}
		t.AddRow(label, rstr, fmt.Sprintf("%.1f s", span),
			fmt.Sprintf("%.2fx", span/balanced))
		if unfair {
			t.SetMetric("global_slowdown", span/balanced)
			t.SetMetric("rate_ratio", maxOver(rates)/minOver(rates))
		} else {
			t.SetMetric("fair_slowdown", span/balanced)
		}
	}
	t.AddNote("routes are identical; only the arbitration weights differ — the 'slow' nodes were fully capable")
	return t
}

func maxOver(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func minOver(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func runE12(cfg Config) *Table {
	ports := 8
	msg := 128 * 1024.0 // per-port payload ~0.9 s of drain: freezes land mid-flight
	t := NewTable("E12", "Deadlock-recovery freezes",
		"each recovery halts all traffic for two seconds",
		"freezes", "transpose time", "added delay")
	tel := cfg.telemetry()
	t.Telemetry = tel
	base := 0.0
	for _, freezes := range []int{0, 1, 2, 3} {
		ss := shardedNet(cfg, tel)
		sw := transposeSwitch(ss, ports)
		tel.attachProfileSharded(ss, tel.nextRun(fmt.Sprintf("freeze-%d", freezes)))
		// Space freezes so each lands while the (stretched) transfer is
		// still in flight: completion after k freezes is base + 2k.
		for i := 0; i < freezes; i++ {
			sw.FreezeAt(0.3+2.1*float64(i), 2.0)
		}
		elapsed := workload.Transpose(ss, sw, msg)
		tel.endSharded(ss)
		cfg.observeBarrier(fmt.Sprintf("freeze-%d", freezes), ss)
		if freezes == 0 {
			base = elapsed
		}
		t.AddRow(fmt.Sprintf("%d", freezes), fmt.Sprintf("%.2f s", elapsed),
			fmt.Sprintf("%.2f s", elapsed-base))
		t.SetMetric(fmt.Sprintf("time_%d", freezes), elapsed)
	}
	t.AddNote("added delay tracks 2 s per freeze, as the deadlock-recovery hardware dictates")
	return t
}
