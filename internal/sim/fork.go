//go:build !race

package sim

// forkMinEvents is the per-shard work below which a safe window is not
// worth forking: runOneWindow forks only when at least two shards each
// hold this many eligible events — the coordinator then runs the first
// eligible shard itself and starts a goroutine for each other one — and
// otherwise runs every eligible shard inline on the coordinator, in shard
// order.
//
// Derivation, on a 2-vCPU x86-64 host: one fork-join (a goroutine per
// forked shard plus the WaitGroup wake) costs about 2.4 µs — the planes
// workload saved ~4.3 ms per op by not forking its 1,788 multi-shard
// windows — while one event costs about 135–150 ns (the sim.station_ns
// and sim.schedule_fire_ns layer benchmarks). A fork therefore breaks
// even at roughly 16–18 events per shard; 32 leaves a 2x margin. On the
// benchmark workloads at 2 shards every value from 16 to 65,000 makes the
// same decisions: no switch or cluster window forks, and every fleet
// window (~65k events queued per shard when it opens) still does. At 8,
// 64 planes windows fork; above ~65,500 the fleet stops forking.
//
// Race builds use 1 instead (fork_race.go), so every window with two or
// more active shards forks there and the race detector keeps exercising
// concurrent windows.
const forkMinEvents = 32
