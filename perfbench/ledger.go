package main

import (
	"fmt"
	"sort"
)

// ledgerInput is what the ledger needs beyond the per-layer metrics.
type ledgerInput struct {
	plain, hooked []float64
	expWall       map[string][]float64
	kernel        *kernelTally
	micros        micros
}

// printLedger prints the outside-in ledger of one workload: the op time,
// the layer times attributed to it, the unattributed residual, what the
// layer microbenchmarks' unit costs predict for the same counts, and
// finally every per-layer metric with its unit and sample count.
func printLedger(w *workload, seed uint64, r *report, in ledgerInput) {
	get := func(name string) float64 { return r.m[name].Value }
	op := median(in.hooked)
	capacity := op * float64(w.parallel)
	share := func(s float64) string { return fmt.Sprintf("%5.1f%%", 100*ratio(s, capacity)) }

	fmt.Printf("ledger %s seed %d: host seconds per op, medians\n", w.name, seed)
	fmt.Printf("  op_s of the end-to-end op    %10.4f s          n=%d\n", median(in.plain), len(in.plain))
	fmt.Printf("  op_s with the hooks          %10.4f s          n=%d  overhead %+.1f%%\n",
		op, len(in.hooked), 100*(get("ledger.hook_overhead")-1))
	if w.parallel > 1 {
		fmt.Printf("  worker-seconds (x%d workers)  %10.4f s\n", w.parallel, capacity)
	}
	fmt.Printf("  attributed:\n")
	for _, name := range []string{"sim.window_s", "sim.deliver_s", "sim.barrier_hook_s"} {
		fmt.Printf("    %-26s %10.4f s %s  n=%d\n", name, get(name), share(get(name)), r.n[name])
	}
	residual := "exp.outside_kernel_s"
	what := "model construction and serial-kernel work outside sharded windows"
	switch {
	case w.ids == nil:
		what = "fleet construction and teardown (exp.fleet_build_s)"
	case w.parallel > 1:
		what += ", and idle workers"
	}
	fmt.Printf("  unattributed residual:\n    %-26s %10.4f s %s  n=%d  %s\n",
		residual, get(residual), share(get(residual)), r.n[residual], what)

	d := in.micros
	st := in.kernel.st
	fmt.Printf("  predicted from unit costs:\n")
	kernelCPU := float64(st.Fired) * d.station.ns / 1e9
	fmt.Printf("    kernel: sim.fired %d x sim.station_ns %.1f = %.4f CPU-s; sim.window_s x %d shards = %.4f s\n",
		st.Fired, d.station.ns, kernelCPU, w.shards, get("sim.window_s")*float64(w.shards))
	if w.ids == nil {
		sweep := float64(fleetTicks*fleetDisks) * (d.observeNs + d.verdictsNs) / 1e9
		fmt.Printf("    detect: %d sweeps x %d members x (%.2f + %.2f) ns = %.4f s; sim.barrier_hook_s = %.4f s\n",
			fleetTicks, fleetDisks, d.observeNs, d.verdictsNs, sweep, get("sim.barrier_hook_s"))
	}

	if len(in.expWall) > 0 {
		ids := make([]string, 0, len(in.expWall))
		sum := 0.0
		for id, xs := range in.expWall {
			ids = append(ids, id)
			sum += median(xs)
		}
		sort.Slice(ids, func(i, j int) bool {
			mi, mj := median(in.expWall[ids[i]]), median(in.expWall[ids[j]])
			if mi != mj {
				return mi > mj
			}
			return ids[i] < ids[j]
		})
		fmt.Printf("  per experiment (wall time within the op; sum %.4f s of %.4f worker-seconds):\n", sum, capacity)
		for _, id := range ids {
			x := median(in.expWall[id])
			fmt.Printf("    %-26s %10.4f s %s  n=%d\n", "exp."+id+"_s", x, share(x), len(in.expWall[id]))
		}
		fmt.Printf("    %-26s %10.4f s %s  (scheduling and idle workers)\n", "unattributed", capacity-sum, share(capacity-sum))
	}

	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  per-layer metrics:\n")
	for _, name := range names {
		fmt.Printf("    %-36s %14.6g %-6s n=%d\n", name, r.m[name].Value, r.m[name].Unit, r.n[name])
	}
}
