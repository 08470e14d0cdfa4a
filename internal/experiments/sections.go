package experiments

import (
	"fmt"
	"strings"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/pin"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// Traffic reproduces the Section 9.1.3 network-traffic analysis: writes and
// evictions retried because of pinned lines, per million instructions, on
// the parallel suites.
type Traffic struct {
	// Rows are per (scheme, variant) worst-case and mean rates.
	Rows []TrafficRow
}

// TrafficRow is one configuration's retry rates.
type TrafficRow struct {
	Scheme  defense.Scheme
	Variant defense.Variant
	// MaxWrites/MaxEvictions are the worst per-application rates per
	// million instructions; MeanWrites/MeanEvictions the suite means.
	MaxWrites, MeanWrites       float64
	MaxEvictions, MeanEvictions float64
	MaxBench                    string
}

// RunTraffic executes the traffic study over SPLASH2 and PARSEC.
func RunTraffic(r *Runner) (*Traffic, error) {
	benches := append(suiteBenches("SPLASH2"), suiteBenches("PARSEC")...)
	var reqs []runReq
	for _, sch := range defense.Schemes() {
		for _, v := range []defense.Variant{defense.LP, defense.EP} {
			for _, b := range benches {
				reqs = append(reqs, runReq{bench: b, pol: defense.Policy{Scheme: sch, Variant: v}})
			}
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	out := &Traffic{}
	for _, sch := range defense.Schemes() {
		for _, v := range []defense.Variant{defense.LP, defense.EP} {
			row := TrafficRow{Scheme: sch, Variant: v}
			var wSum, eSum float64
			for _, b := range benches {
				res, err := r.run(b, defense.Policy{Scheme: sch, Variant: v}, nil)
				if err != nil {
					return nil, err
				}
				insts := float64(res.Counters["retired"])
				if insts == 0 {
					continue
				}
				w := float64(res.Counters["coh.retried_writes"]) / insts * 1e6
				e := float64(res.Counters["coh.retried_evictions"]+
					res.Counters["coh.retried_evictions_l1"]) / insts * 1e6
				wSum += w
				eSum += e
				if w > row.MaxWrites {
					row.MaxWrites = w
					row.MaxBench = b.BenchName
				}
				if e > row.MaxEvictions {
					row.MaxEvictions = e
				}
			}
			row.MeanWrites = wSum / float64(len(benches))
			row.MeanEvictions = eSum / float64(len(benches))
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the traffic table.
func (f *Traffic) String() string {
	t := &table{header: []string{"Scheme", "Variant", "RetriedWrites/Minst (max)",
		"(mean)", "RetriedEvictions/Minst (max)", "(mean)", "worst app"}}
	for _, r := range f.Rows {
		t.add(r.Scheme.String(), r.Variant.String(),
			fmt.Sprintf("%.2f", r.MaxWrites), fmt.Sprintf("%.2f", r.MeanWrites),
			fmt.Sprintf("%.3f", r.MaxEvictions), fmt.Sprintf("%.3f", r.MeanEvictions),
			r.MaxBench)
	}
	return "Section 9.1.3: writes/evictions retried due to pinning, per million instructions\n" +
		t.String() + "Paper worst case: 14.8 retried writes and 0.05 retried evictions per Minst.\n"
}

// CSTStudy reproduces Section 9.2.1: CST false-positive rates under Early
// Pinning and the overhead of the default CST sizes versus an infinite CST.
type CSTStudy struct {
	// FP rates (fraction of pin attempts) per suite, averaged over
	// benchmarks and schemes.
	L1FP, DirFP map[string]float64
	// OverheadDelta is the geomean normalized-CPI ratio of the default
	// CST configuration to the infinite CST, in percent, per suite group.
	OverheadDelta map[string]float64
}

// cstReqs returns the pair of requests the CST study runs per benchmark:
// the default (finite) CST configuration and the infinite-CST variant.
// Both phases of RunCSTStudy go through this helper so the enumerated and
// rendered keys cannot drift apart.
func cstReqs(b *trace.Profile) (finite, infinite runReq) {
	pol := defense.Policy{Scheme: defense.Fence, Variant: defense.EP}
	cfg := arch.PaperConfig(b.Cores())
	inf := cfg
	inf.InfiniteCST = true
	finite = runReq{bench: b, pol: pol, cfg: &cfg}
	infinite = runReq{bench: b, pol: pol, cfg: &inf}
	return finite, infinite
}

// RunCSTStudy executes the CST sensitivity study. To bound runtime it uses
// the Fence scheme (the most CST-pressured) over a sample of benchmarks.
func RunCSTStudy(r *Runner) (*CSTStudy, error) {
	suites := []string{"SPEC17", "SPLASH2", "PARSEC"}
	var reqs []runReq
	for _, suite := range suites {
		for _, b := range suiteBenches(suite) {
			finite, infinite := cstReqs(b)
			reqs = append(reqs, finite, infinite)
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	out := &CSTStudy{
		L1FP: map[string]float64{}, DirFP: map[string]float64{},
		OverheadDelta: map[string]float64{},
	}
	for _, suite := range suites {
		var l1Sum, dirSum float64
		var n int
		var ratio []float64
		for _, b := range suiteBenches(suite) {
			finiteReq, infiniteReq := cstReqs(b)
			finite, err := r.get(finiteReq)
			if err != nil {
				return nil, err
			}
			infinite, err := r.get(infiniteReq)
			if err != nil {
				return nil, err
			}
			ratio = append(ratio, finite.CPI/infinite.CPI)
			for _, hs := range finite.HW {
				if !hs.CST {
					continue
				}
				l1Sum += hs.L1FP
				dirSum += hs.DirFP
				n++
			}
		}
		if n > 0 {
			out.L1FP[suite] = l1Sum / float64(n)
			out.DirFP[suite] = dirSum / float64(n)
		}
		out.OverheadDelta[suite] = (stats.GeoMean(ratio) - 1) * 100
	}
	return out, nil
}

// String renders the CST study.
func (f *CSTStudy) String() string {
	t := &table{header: []string{"Suite", "L1 CST FP rate", "Dir/LLC CST FP rate", "CPI vs infinite CST"}}
	for _, s := range []string{"SPEC17", "SPLASH2", "PARSEC"} {
		t.add(s, fmt.Sprintf("%.4f%%", f.L1FP[s]*100), fmt.Sprintf("%.4f%%", f.DirFP[s]*100),
			fmt.Sprintf("+%.2f%%", f.OverheadDelta[s]))
	}
	return "Section 9.2.1: CST false positives and sizing (Fence+EP)\n" + t.String() +
		"Paper: L1 FP < 0.02%/0.01%, Dir FP < 0.4%/0.02%; default CST within 3.6% of infinite.\n"
}

// CPTStudy reproduces Section 9.2.2: CPT occupancy with an ideal table and
// the overflow rate with the default 4-entry table.
type CPTStudy struct {
	MeanOccupancy float64
	MaxOccupancy  int
	OverflowRate  float64 // overflows per insertion attempt, default CPT
	Inserts       uint64
}

// cptReqs returns the pair of requests the CPT study runs per benchmark:
// an ideal (unbounded) CPT and the default 4-entry configuration.
func cptReqs(b *trace.Profile) (ideal, deflt runReq) {
	pol := defense.Policy{Scheme: defense.Fence, Variant: defense.EP}
	cfg := arch.PaperConfig(b.Cores())
	cfg.CPTEntries = 0
	ideal = runReq{bench: b, pol: pol, cfg: &cfg}
	deflt = runReq{bench: b, pol: pol}
	return ideal, deflt
}

// RunCPTStudy executes the CPT study over the parallel suites with the
// write-sharing-heavy benchmarks.
func RunCPTStudy(r *Runner) (*CPTStudy, error) {
	benches := append(suiteBenches("SPLASH2"), suiteBenches("PARSEC")...)
	var reqs []runReq
	for _, b := range benches {
		ideal, deflt := cptReqs(b)
		reqs = append(reqs, ideal, deflt)
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	out := &CPTStudy{}
	var occSum float64
	var occN int
	var overflows, inserts uint64
	for _, b := range benches {
		idealReq, defltReq := cptReqs(b)
		// Ideal CPT: unbounded capacity.
		res, err := r.get(idealReq)
		if err != nil {
			return nil, err
		}
		for _, hs := range res.HW {
			if !hs.CPT || hs.CPTSamples == 0 {
				continue
			}
			occSum += hs.CPTMean
			occN++
			if hs.CPTMax > out.MaxOccupancy {
				out.MaxOccupancy = hs.CPTMax
			}
		}
		// Default CPT: measure overflow rate.
		def, err := r.get(defltReq)
		if err != nil {
			return nil, err
		}
		for _, hs := range def.HW {
			if !hs.CPT {
				continue
			}
			overflows += hs.CPTOverflows
			inserts += hs.CPTInserts
		}
	}
	if occN > 0 {
		out.MeanOccupancy = occSum / float64(occN)
	}
	out.Inserts = inserts
	if inserts > 0 {
		out.OverflowRate = float64(overflows) / float64(inserts)
	}
	return out, nil
}

// String renders the CPT study.
func (f *CPTStudy) String() string {
	return fmt.Sprintf("Section 9.2.2: CPT sizing (Fence+EP, parallel suites)\n"+
		"ideal-CPT mean occupancy: %.3f lines, max occupancy: %d lines\n"+
		"default 4-entry CPT: %d insertion attempts, overflow rate %.6f per attempt\n"+
		"Paper: average ~1 line, max 4-7; overflows < 0.0001 per insertion.\n",
		f.MeanOccupancy, f.MaxOccupancy, f.Inserts, f.OverflowRate)
}

// WdStudy reproduces Section 9.2.3: the effect of shrinking the per-core
// directory/LLC reservation Wd from 2 to 1 under Early Pinning.
type WdStudy struct {
	// Overhead[group][wd] is the geomean overhead (%) per suite group for
	// Wd = 1 and Wd = 2, per scheme.
	Rows []WdRow
}

// WdRow is one (scheme, group) comparison.
type WdRow struct {
	Scheme     defense.Scheme
	Group      string
	Wd2Percent float64
	Wd1Percent float64
}

// wdReq returns the request for one benchmark at the given reservation
// size. Wd=2 is the default configuration, so it reuses the Figure 7/8
// runs; Wd=1 carries its own config.
func wdReq(b *trace.Profile, sch defense.Scheme, wd int) runReq {
	pol := defense.Policy{Scheme: sch, Variant: defense.EP}
	if wd == 2 {
		return runReq{bench: b, pol: pol}
	}
	cfg := arch.PaperConfig(b.Cores())
	cfg.Wd = wd
	return runReq{bench: b, pol: pol, cfg: &cfg}
}

// RunWdStudy executes the Wd sensitivity study.
func RunWdStudy(r *Runner) (*WdStudy, error) {
	groups := []struct {
		name   string
		suites []string
	}{{"SPEC17", []string{"SPEC17"}}, {"Parallel", []string{"SPLASH2", "PARSEC"}}}
	var reqs []runReq
	for _, sch := range defense.Schemes() {
		for _, g := range groups {
			for _, s := range g.suites {
				for _, b := range suiteBenches(s) {
					reqs = append(reqs, unsafeReq(b), wdReq(b, sch, 2), wdReq(b, sch, 1))
				}
			}
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	out := &WdStudy{}
	for _, sch := range defense.Schemes() {
		for _, g := range groups {
			var benches []*trace.Profile
			for _, s := range g.suites {
				benches = append(benches, suiteBenches(s)...)
			}
			row := WdRow{Scheme: sch, Group: g.name}
			for _, wd := range []int{2, 1} {
				var norms []float64
				for _, b := range benches {
					res, err := r.get(wdReq(b, sch, wd))
					if err != nil {
						return nil, err
					}
					base, err := r.unsafeCPI(b)
					if err != nil {
						return nil, err
					}
					norms = append(norms, res.CPI/base)
				}
				o := stats.Overhead(stats.GeoMean(norms))
				if wd == 2 {
					row.Wd2Percent = o
				} else {
					row.Wd1Percent = o
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// String renders the Wd study.
func (f *WdStudy) String() string {
	t := &table{header: []string{"Scheme", "Group", "EP overhead (Wd=2)", "EP overhead (Wd=1)"}}
	for _, r := range f.Rows {
		t.add(r.Scheme.String(), r.Group,
			fmt.Sprintf("%.1f%%", r.Wd2Percent), fmt.Sprintf("%.1f%%", r.Wd1Percent))
	}
	return "Section 9.2.3: directory/LLC partition size (Wd) sensitivity\n" + t.String() +
		"Paper: Fence 51.3->54.7% (SPEC17), 46.4->47.0% (parallel); DOM 15.3->18.5%, 7.6->8.0%; STT 13.2->14.7%.\n"
}

// HardwareTable reproduces the Section 9.2.4 / Table 1 hardware accounting.
func HardwareTable() string {
	cfg := arch.PaperConfig(8)
	cost := pin.Cost(&cfg)
	var b strings.Builder
	b.WriteString("Section 9.2.4 / Table 1: Pinned Loads hardware storage\n")
	fmt.Fprintf(&b, "L1 CST: %d entries x %d records = %d bytes (paper: 444 B)\n",
		cfg.L1CSTEntries, cfg.L1CSTRecords, cost.L1CSTBytes)
	fmt.Fprintf(&b, "Dir/LLC CST: %d entries x %d records = %d bytes (paper: 370 B)\n",
		cfg.DirCSTEntries, cfg.DirCSTRecords, cost.DirCSTBytes)
	fmt.Fprintf(&b, "CPT: %d entries = %d bytes (paper: negligible)\n", cfg.CPTEntries, cost.CPTBytes)
	fmt.Fprintf(&b, "LQ tag extension: %d bytes across %d LQ entries (%d-bit tags)\n",
		cost.LQTagBytes, cfg.LQEntries, cfg.LQIDTagBits)
	return b.String()
}

// ArchTable renders the Table 1 machine parameters.
func ArchTable() string {
	cfg := arch.PaperConfig(8)
	t := &table{header: []string{"Parameter", "Value"}}
	t.add("Cores", fmt.Sprintf("1 (SPEC17) or 8 (SPLASH2 & PARSEC), %g GHz", cfg.ClockGHz))
	t.add("Core", fmt.Sprintf("%d-issue, %d LQ, %d SQ, %d ROB entries",
		cfg.IssueWidth, cfg.LQEntries, cfg.SQEntries, cfg.ROBEntries))
	t.add("L1-D", fmt.Sprintf("%d sets x %d ways (32 KB), %d-cycle RT, %d ports, next-line prefetcher",
		cfg.L1Sets, cfg.L1Ways, cfg.L1HitCycles, cfg.L1Ports))
	t.add("LLC slice", fmt.Sprintf("%d x (%d sets x %d ways = 2 MB), %d-cycle RT",
		cfg.LLCSlices, cfg.LLCSets, cfg.LLCWays, cfg.LLCHitCycles))
	t.add("Coherence", "directory-based MESI (+ Pinned Loads Defer/Abort/GetX*/Inv*/Clear)")
	t.add("Network", fmt.Sprintf("%dx%d mesh, %d cycle/hop", cfg.MeshCols, cfg.MeshRows, cfg.HopCycles))
	t.add("DRAM", fmt.Sprintf("%d cycles RT after LLC (50 ns at 2 GHz)", cfg.DRAMCycles))
	t.add("L1 CST", fmt.Sprintf("%d entries, %d records/entry", cfg.L1CSTEntries, cfg.L1CSTRecords))
	t.add("Dir/LLC CST", fmt.Sprintf("%d entries, %d records/entry; Wd=%d", cfg.DirCSTEntries, cfg.DirCSTRecords, cfg.Wd))
	t.add("CPT", fmt.Sprintf("%d entries", cfg.CPTEntries))
	t.add("LQ ID tag", fmt.Sprintf("%d bits", cfg.LQIDTagBits))
	return "Table 1: simulated architecture parameters\n" + t.String()
}
