package core

import (
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// BenchmarkCoreNew measures building a system: allocating and zeroing the
// directory/LLC arrays, the cores and their ROB rings, and prewarming the
// LLC with the workload's resident set. A quick Figure 7 sweep pays it
// once per job, so at quick sizing it rivals the cycle loop. bwaves_r has
// the largest SPEC17 warm set; 8-core ocean_cp is the largest prewarm of
// the multi-threaded proxies.
func BenchmarkCoreNew(b *testing.B) {
	for _, bc := range []struct {
		name  string
		bench string
		cores int
	}{
		{"bwaves_r-1core", "bwaves_r", 1},
		{"ocean_cp-8core", "ocean_cp", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := trace.ByName(bc.bench)
			if w == nil {
				b.Fatalf("workload %s missing", bc.bench)
			}
			cfg := arch.PaperConfig(bc.cores)
			pol := defense.Policy{Scheme: defense.DOM, Variant: defense.EP}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, pol, w, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
