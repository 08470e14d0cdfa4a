package experiments

import (
	"fmt"
	"strings"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// condMasks are the cumulative VP condition sets of Figure 1, in the
// paper's stacking order.
var condMasks = []struct {
	Name string
	Mask defense.Cond
}{
	{"Ctrl Dep.", defense.CondCtrl},
	{"Alias Dep.", defense.CondCtrl | defense.CondAlias},
	{"Exception", defense.CondCtrl | defense.CondAlias | defense.CondException},
	{"MCV", defense.CondsComprehensive},
}

// Figure1 reproduces the stacked geometric-mean execution overhead of the
// four cumulative fence-removal conditions over the Unsafe baseline, per
// suite (paper Figure 1).
type Figure1 struct {
	Suites []string
	// Overhead[suite][i] is the geomean overhead (in %) with conditions
	// up to condMasks[i]; the stacked segment i is the increment over
	// segment i-1.
	Overhead map[string][4]float64
}

// RunFigure1 executes the Figure 1 study.
func RunFigure1(r *Runner) (*Figure1, error) {
	f := &Figure1{Suites: []string{"SPEC17", "SPLASH2", "PARSEC"}, Overhead: map[string][4]float64{}}
	var reqs []runReq
	for _, suite := range f.Suites {
		for _, b := range suiteBenches(suite) {
			reqs = append(reqs, unsafeReq(b))
			for _, cm := range condMasks {
				reqs = append(reqs, runReq{bench: b, pol: defense.Policy{Scheme: defense.Fence, Conds: cm.Mask}})
			}
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	for _, suite := range f.Suites {
		var out [4]float64
		for i, cm := range condMasks {
			var norms []float64
			for _, b := range suiteBenches(suite) {
				pol := defense.Policy{Scheme: defense.Fence, Conds: cm.Mask}
				n, err := r.normalized(b, pol)
				if err != nil {
					return nil, err
				}
				norms = append(norms, n)
			}
			out[i] = stats.Overhead(stats.GeoMean(norms))
		}
		f.Overhead[suite] = out
	}
	return f, nil
}

// String renders the figure as a stacked table.
func (f *Figure1) String() string {
	t := &table{header: []string{"Suite", "Ctrl Dep.", "+Alias Dep.", "+Exception", "+MCV (total)"}}
	for _, s := range f.Suites {
		o := f.Overhead[s]
		t.add(s,
			fmt.Sprintf("%.1f%%", o[0]),
			fmt.Sprintf("%.1f%% (+%.1f)", o[1], o[1]-o[0]),
			fmt.Sprintf("%.1f%% (+%.1f)", o[2], o[2]-o[1]),
			fmt.Sprintf("%.1f%% (+%.1f)", o[3], o[3]-o[2]))
	}
	return "Figure 1: execution overhead by VP-delay condition (geomean vs Unsafe)\n" + t.String()
}

// CPIFigure reproduces Figure 7 (SPEC17) or Figure 8 (SPLASH2 and PARSEC):
// per-benchmark CPI for every scheme and variant, normalized to Unsafe.
type CPIFigure struct {
	Title   string
	Benches []string
	Schemes []defense.Scheme
	// Norm[scheme][variant][bench] is the normalized CPI.
	Norm map[defense.Scheme]map[defense.Variant]map[string]float64
	// GeoMean[scheme][variant] is the suite geometric mean.
	GeoMean map[defense.Scheme]map[defense.Variant]float64
}

// RunCPIFigure runs the normalized-CPI sweep over the given suites.
func RunCPIFigure(r *Runner, title string, suites ...string) (*CPIFigure, error) {
	f := &CPIFigure{
		Title:   title,
		Schemes: defense.Schemes(),
		Norm:    map[defense.Scheme]map[defense.Variant]map[string]float64{},
		GeoMean: map[defense.Scheme]map[defense.Variant]float64{},
	}
	var benches []*trace.Profile
	for _, s := range suites {
		benches = append(benches, suiteBenches(s)...)
	}
	for _, b := range benches {
		f.Benches = append(f.Benches, b.BenchName)
	}
	var reqs []runReq
	for _, b := range benches {
		reqs = append(reqs, unsafeReq(b))
		for _, sch := range f.Schemes {
			for _, v := range defense.Variants() {
				reqs = append(reqs, runReq{bench: b, pol: defense.Policy{Scheme: sch, Variant: v}})
			}
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	for _, sch := range f.Schemes {
		f.Norm[sch] = map[defense.Variant]map[string]float64{}
		f.GeoMean[sch] = map[defense.Variant]float64{}
		for _, v := range defense.Variants() {
			m := map[string]float64{}
			var norms []float64
			for _, b := range benches {
				n, err := r.normalized(b, defense.Policy{Scheme: sch, Variant: v})
				if err != nil {
					return nil, err
				}
				m[b.BenchName] = n
				norms = append(norms, n)
			}
			f.Norm[sch][v] = m
			f.GeoMean[sch][v] = stats.GeoMean(norms)
		}
	}
	return f, nil
}

// String renders one table per scheme, matching the paper's plot layout.
func (f *CPIFigure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: normalized CPI (vs Unsafe)\n", f.Title)
	for _, sch := range f.Schemes {
		t := &table{header: []string{"Benchmark", "COMP", "LP", "EP", "SPECTRE"}}
		for _, bench := range f.Benches {
			t.add(bench,
				fmt.Sprintf("%.3f", f.Norm[sch][defense.Comp][bench]),
				fmt.Sprintf("%.3f", f.Norm[sch][defense.LP][bench]),
				fmt.Sprintf("%.3f", f.Norm[sch][defense.EP][bench]),
				fmt.Sprintf("%.3f", f.Norm[sch][defense.Spectre][bench]))
		}
		t.add("Geo.Mean",
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.Comp]),
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.LP]),
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.EP]),
			fmt.Sprintf("%.3f", f.GeoMean[sch][defense.Spectre]))
		fmt.Fprintf(&b, "\n[%s]\n%s", sch, t.String())
	}
	return b.String()
}

// Figure9 reproduces the overhead breakdown per scheme and suite group,
// with the LP and EP bars (paper Figure 9).
type Figure9 struct {
	// Rows are (scheme, group) combinations in paper order.
	Rows []Figure9Row
}

// Figure9Row is one group of bars.
type Figure9Row struct {
	Scheme defense.Scheme
	Group  string // "SPEC17" or "Parallel"
	// Stack[i] is the cumulative overhead (%) with condMasks[i].
	Stack [4]float64
	LP    float64 // overhead (%) with Late Pinning
	EP    float64 // overhead (%) with Early Pinning
}

// figure9Groups are the suite groupings of Figure 9.
var figure9Groups = []struct {
	name   string
	suites []string
}{
	{"SPEC17", []string{"SPEC17"}},
	{"Parallel", []string{"SPLASH2", "PARSEC"}},
}

// RunFigure9 executes the Figure 9 study.
func RunFigure9(r *Runner) (*Figure9, error) {
	var reqs []runReq
	for _, sch := range defense.Schemes() {
		for _, g := range figure9Groups {
			for _, s := range g.suites {
				for _, b := range suiteBenches(s) {
					reqs = append(reqs, unsafeReq(b))
					for _, cm := range condMasks {
						reqs = append(reqs, runReq{bench: b, pol: defense.Policy{Scheme: sch, Conds: cm.Mask}})
					}
					for _, v := range []defense.Variant{defense.LP, defense.EP} {
						reqs = append(reqs, runReq{bench: b, pol: defense.Policy{Scheme: sch, Variant: v}})
					}
				}
			}
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	f := &Figure9{}
	for _, sch := range defense.Schemes() {
		for _, g := range figure9Groups {
			var benches []*trace.Profile
			for _, s := range g.suites {
				benches = append(benches, suiteBenches(s)...)
			}
			row := Figure9Row{Scheme: sch, Group: g.name}
			for i, cm := range condMasks {
				var norms []float64
				for _, b := range benches {
					n, err := r.normalized(b, defense.Policy{Scheme: sch, Conds: cm.Mask})
					if err != nil {
						return nil, err
					}
					norms = append(norms, n)
				}
				row.Stack[i] = stats.Overhead(stats.GeoMean(norms))
			}
			for _, v := range []defense.Variant{defense.LP, defense.EP} {
				var norms []float64
				for _, b := range benches {
					n, err := r.normalized(b, defense.Policy{Scheme: sch, Variant: v})
					if err != nil {
						return nil, err
					}
					norms = append(norms, n)
				}
				o := stats.Overhead(stats.GeoMean(norms))
				if v == defense.LP {
					row.LP = o
				} else {
					row.EP = o
				}
			}
			f.Rows = append(f.Rows, row)
		}
	}
	return f, nil
}

// String renders the breakdown table.
func (f *Figure9) String() string {
	t := &table{header: []string{"Scheme", "Group", "Ctrl", "+Alias", "+Exc", "+MCV(COMP)", "LP", "EP"}}
	for _, r := range f.Rows {
		t.add(r.Scheme.String(), r.Group,
			fmt.Sprintf("%.1f%%", r.Stack[0]),
			fmt.Sprintf("%.1f%%", r.Stack[1]),
			fmt.Sprintf("%.1f%%", r.Stack[2]),
			fmt.Sprintf("%.1f%%", r.Stack[3]),
			fmt.Sprintf("%.1f%%", r.LP),
			fmt.Sprintf("%.1f%%", r.EP))
	}
	return "Figure 9: overhead breakdown and Pinned Loads effect (geomean vs Unsafe)\n" + t.String()
}

// Figure2 demonstrates the conceptual load-overlap behaviour of paper
// Figure 2 on two microbenchmarks: a stream of independent loads and a
// stream of address-dependent loads.
type Figure2 struct {
	// CPI[workload][config] for workloads "independent" and "dependent"
	// and configs "Unsafe", "Safe(COMP)", "LP", "EP".
	CPI map[string]map[string]float64
}

// figure2Workload builds a loop of loads that miss the L1 (large stride)
// separated by cheap ALU ops; dependent chains each load's address on the
// previous load when dep is true.
func figure2Workload(name string, dep bool) *trace.Profile {
	p := &trace.Profile{
		BenchName: name, Suite: "micro", NumCores: 1,
		LoadFrac: 0.30, StoreFrac: 0.05, BranchFrac: 0.02,
		MispredictRate: 0.001, DepDist: 4,
		Kernels: []trace.Kernel{{Kind: trace.Stride, Weight: 1, FootprintKB: 4096, StrideLines: 8}},
	}
	if dep {
		p.Kernels = []trace.Kernel{{Kind: trace.Chase, Weight: 1, FootprintKB: 4096}}
	}
	return p
}

// figure2Policies are the configurations of the Figure 2 microbenchmark.
var figure2Policies = []struct {
	name string
	pol  defense.Policy
}{
	{"Unsafe", defense.Policy{Scheme: defense.Unsafe}},
	{"Safe(COMP)", defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}},
	{"LP", defense.Policy{Scheme: defense.Fence, Variant: defense.LP}},
	{"EP", defense.Policy{Scheme: defense.Fence, Variant: defense.EP}},
}

// RunFigure2 executes the microbenchmark study.
func RunFigure2(r *Runner) (*Figure2, error) {
	workloads := []struct {
		name  string
		bench *trace.Profile
	}{
		{"independent", figure2Workload("fig2-independent", false)},
		{"dependent", figure2Workload("fig2-dependent", true)},
	}
	var reqs []runReq
	for _, w := range workloads {
		for _, pc := range figure2Policies {
			reqs = append(reqs, runReq{bench: w.bench, pol: pc.pol})
		}
	}
	if err := r.runAll(reqs); err != nil {
		return nil, err
	}
	f := &Figure2{CPI: map[string]map[string]float64{}}
	for _, w := range workloads {
		m := map[string]float64{}
		for _, pc := range figure2Policies {
			out, err := r.run(w.bench, pc.pol, nil)
			if err != nil {
				return nil, err
			}
			m[pc.name] = out.CPI
		}
		f.CPI[w.name] = m
	}
	return f, nil
}

// String renders the microbenchmark CPIs.
func (f *Figure2) String() string {
	t := &table{header: []string{"Workload", "Unsafe", "Safe(COMP)", "LP", "EP"}}
	for _, w := range []string{"independent", "dependent"} {
		m := f.CPI[w]
		t.add(w, fmt.Sprintf("%.3f", m["Unsafe"]), fmt.Sprintf("%.3f", m["Safe(COMP)"]),
			fmt.Sprintf("%.3f", m["LP"]), fmt.Sprintf("%.3f", m["EP"]))
	}
	return "Figure 2 (concept): load overlap in the ROB — CPI on miss-heavy loads\n" +
		t.String() +
		"Expect: Unsafe << EP < LP < Safe for independent loads; EP ~ LP for dependent loads.\n"
}
