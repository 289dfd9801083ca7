package main

// seed42Digests are the result digests (opOut.digest) of each workload's
// op at seed 42. Results are identical at any shard, sweep-worker and
// parallel setting, and telemetry never changes them, so the fleet
// workloads share one digest and the digests hold on any host. After an
// intended change to the program's output, regenerate them from the
// "op" line of `perfbench -workload <name> -seed 42 -want none`.
var seed42Digests = map[string]string{
	"fleet":           "f78a0f7e8ba80e6c74a3a56b70d23de52675a26702a8ca4bb7fa5aad6f5602f5",
	"fleet-telemetry": "f78a0f7e8ba80e6c74a3a56b70d23de52675a26702a8ca4bb7fa5aad6f5602f5",
	"planes":          "f53ec1bb98e3b48fb9f0755837d1ffb80d17ed8ba0f69674e58fb168c798cae2",
	"suite-quick":     "278092c9b6398dbe7d7f7cd48d687f997268cbe8ee4f4265500a7dc533a6b033",
}
