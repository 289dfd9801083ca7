package experiments

import (
	"fmt"

	"failstutter/internal/device"
	"failstutter/internal/raid"
	"failstutter/internal/sim"
)

// blockBytes is the logical block size used by the storage experiments.
const blockBytes = 4096

// mb formats bytes/s as MB/s.
func mb(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f MB/s", bytesPerSec/1e6)
}

// flatDisk builds a constant-bandwidth disk (bandwidth in bytes/s).
func flatDisk(s *sim.Simulator, name string, bw float64) *device.Disk {
	return device.MustDisk(s, device.DiskParams{
		Name:           name,
		CapacityBlocks: 1 << 24,
		BlockBytes:     blockBytes,
		Zones:          []device.Zone{{CapacityFrac: 1, Bandwidth: bw}},
		SeekTime:       0.002,
		AgingFactor:    1,
	})
}

// buildArray builds a RAID-10 array with one mirror pair per entry of
// rates (both members at that bandwidth in bytes/s).
func buildArray(s *sim.Simulator, rates []float64) *raid.Array {
	pairs := make([]*raid.MirrorPair, len(rates))
	for i, r := range rates {
		a := flatDisk(s, fmt.Sprintf("p%d-a", i), r)
		b := flatDisk(s, fmt.Sprintf("p%d-b", i), r)
		pairs[i] = raid.NewMirrorPair(s, i, a, b)
	}
	return raid.NewArray(s, pairs, blockBytes)
}

// scale picks between the quick and full parameter.
func scale(cfg Config, quick, full int64) int64 {
	if cfg.Quick {
		return quick
	}
	return full
}
