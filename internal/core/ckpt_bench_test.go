package core

import (
	"testing"

	"pinnedloads/internal/defense"
)

// BenchmarkCheckpointSnapshot measures capturing the complete simulator
// state of a warmed 1-core gcc_r system under DOM-LP — the Pinned Loads
// design point with the most checkpointable structures (CSTs, CPT,
// per-set pin counts). ns/op is the write latency EXPERIMENTS.md records;
// bytes/op tracks the encoder's buffer churn.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	sys := newBenchSystem(b, defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var blob []byte
	for i := 0; i < b.N; i++ {
		var err error
		blob, err = sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blob)), "snapshot-bytes")
}

// BenchmarkCheckpointRestore measures loading that snapshot back into a
// live system — the cost a resumed job pays once at startup.
func BenchmarkCheckpointRestore(b *testing.B) {
	pol := defense.Policy{Scheme: defense.DOM, Variant: defense.LP}
	sys := newBenchSystem(b, pol, nil)
	blob, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	dst := newBenchSystem(b, pol, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Restore(blob); err != nil {
			b.Fatal(err)
		}
	}
}
