package experiments

import (
	"fmt"
	"runtime"
	"testing"
)

// TestFleetBuildAllocs bounds the fleet's heap objects per disk. The
// fleet keeps its per-disk state in slabs, so a whole run — build, twelve
// ticks and sweeps — makes about two allocations per disk (each disk's
// completion closure and its station's bound finish), where one heap
// object per structure made about ten.
func TestFleetBuildAllocs(t *testing.T) {
	const disks = 4096
	for _, shards := range []int{1, 2} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunFleetScenario(FleetParams{Disks: disks, Shards: shards, Seed: 42})
		runtime.ReadMemStats(&after)
		perDisk := float64(after.Mallocs-before.Mallocs) / disks
		if perDisk > 3 {
			t.Errorf("shards %d: %d disks made %.2f allocations per disk, want at most 3",
				shards, disks, perDisk)
		}
	}
}

// TestDiskIDMatchesSprintf pins the fleet's hand-rolled id format to the
// fmt verb it replaces: ids name the disks' RNG streams, so any drift
// would move every draw.
func TestDiskIDMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 7, 42, 999999, 1<<20 - 1, 9999999, 10000000, 123456789} {
		if got, want := string(appendDiskID(nil, i)), fmt.Sprintf("d%07d", i); got != want {
			t.Errorf("appendDiskID(%d) = %q, want %q", i, got, want)
		}
	}
	f := newFleet(12, 12)
	f.nameBlock(3, 12)
	for i := 3; i < 12; i++ {
		if want := fmt.Sprintf("d%07d", i); f.ids[i] != want {
			t.Errorf("block id %d = %q, want %q", i, f.ids[i], want)
		}
	}
}
