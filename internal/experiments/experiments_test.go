package experiments

import (
	"strings"
	"testing"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/trace"
)

// tinyParams keeps experiment tests fast.
func tinyParams() Params { return Params{Warmup: 500, Measure: 2500, Seed: 1} }

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(tinyParams())
	b := trace.ByName("leela_r")
	a1, err := r.run(b, defense.Policy{Scheme: defense.Unsafe}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.run(b, defense.Policy{Scheme: defense.Unsafe}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("identical runs not memoized")
	}
	if n := r.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1", n)
	}
	b2, err := r.run(b, defense.Policy{Scheme: defense.Fence}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b2 == a1 {
		t.Fatal("different policies shared a cache entry")
	}
}

func TestNormalized(t *testing.T) {
	r := NewRunner(tinyParams())
	b := trace.ByName("leela_r")
	n, err := r.normalized(b, defense.Policy{Scheme: defense.Fence, Variant: defense.Comp})
	if err != nil {
		t.Fatal(err)
	}
	if n <= 1 {
		t.Fatalf("Fence-Comp normalized CPI %.3f <= 1", n)
	}
}

func TestFigure2Shape(t *testing.T) {
	r := NewRunner(tinyParams())
	f, err := RunFigure2(r)
	if err != nil {
		t.Fatal(err)
	}
	ind := f.CPI["independent"]
	if !(ind["Unsafe"] < ind["EP"] && ind["EP"] < ind["LP"] && ind["LP"] < ind["Safe(COMP)"]) {
		t.Fatalf("independent-load ordering violated: %+v", ind)
	}
	dep := f.CPI["dependent"]
	// Dependent loads: EP cannot beat LP by much (paper Figure 2(g,h)).
	if dep["EP"] < dep["LP"]*0.9 {
		t.Fatalf("EP implausibly beats LP on dependent loads: %+v", dep)
	}
	if !strings.Contains(f.String(), "independent") {
		t.Fatal("rendering broken")
	}
}

func TestCPIFigureSmall(t *testing.T) {
	// Restrict to one benchmark by building a custom mini-suite run: use
	// the real suite but tiny params, checking structure only on SPEC17.
	if testing.Short() {
		t.Skip("long")
	}
	r := NewRunner(Params{Warmup: 200, Measure: 1000, Seed: 1})
	f, err := RunCPIFigure(r, "Figure 7 (SPEC17)", "SPEC17")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benches) != 21 {
		t.Fatalf("%d benches", len(f.Benches))
	}
	for _, sch := range f.Schemes {
		for _, v := range defense.Variants() {
			if f.GeoMean[sch][v] <= 0 {
				t.Fatalf("missing geomean for %v-%v", sch, v)
			}
		}
	}
	if !strings.Contains(f.String(), "Geo.Mean") {
		t.Fatal("rendering broken")
	}
}

func TestHardwareTableContents(t *testing.T) {
	s := HardwareTable()
	for _, want := range []string{"444", "370", "24-bit"} {
		if !strings.Contains(s, want) {
			t.Fatalf("hardware table missing %q:\n%s", want, s)
		}
	}
	a := ArchTable()
	for _, want := range []string{"8-issue", "192 ROB", "MESI", "4x2 mesh"} {
		if !strings.Contains(a, want) {
			t.Fatalf("arch table missing %q:\n%s", want, a)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &table{header: []string{"A", "Blong"}}
	tb.add("x", "y")
	tb.add("longer", "z")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "x     ") {
		t.Fatalf("misaligned: %q", lines[1])
	}
}

func TestSuiteBenchesSorted(t *testing.T) {
	benches := suiteBenches("SPEC17")
	for i := 1; i < len(benches); i++ {
		if benches[i-1].BenchName > benches[i].BenchName {
			t.Fatal("suite not sorted")
		}
	}
}

func TestCharts(t *testing.T) {
	f1 := &Figure1{
		Suites:   []string{"SPEC17"},
		Overhead: map[string][4]float64{"SPEC17": {70, 110, 120, 250}},
	}
	c := f1.Chart()
	if !strings.Contains(c, "SPEC17") || !strings.Contains(c, "legend") {
		t.Fatalf("figure1 chart:\n%s", c)
	}
	f9 := &Figure9{Rows: []Figure9Row{{Scheme: defense.Fence, Group: "SPEC17",
		Stack: [4]float64{70, 110, 120, 250}, LP: 160, EP: 135}}}
	if !strings.Contains(f9.Chart(), "EP") {
		t.Fatal("figure9 chart broken")
	}
}

func TestCPIFigureChart(t *testing.T) {
	f := &CPIFigure{
		Title:   "t",
		Benches: []string{"a"},
		Schemes: []defense.Scheme{defense.Fence},
		Norm: map[defense.Scheme]map[defense.Variant]map[string]float64{
			defense.Fence: {
				defense.Comp: {"a": 2.5}, defense.LP: {"a": 1.8},
				defense.EP: {"a": 1.5}, defense.Spectre: {"a": 1.2},
			},
		},
		GeoMean: map[defense.Scheme]map[defense.Variant]float64{
			defense.Fence: {defense.Comp: 2.5, defense.LP: 1.8,
				defense.EP: 1.5, defense.Spectre: 1.2},
		},
	}
	c := f.Chart()
	if !strings.Contains(c, "Geo.Mean") || !strings.Contains(c, "█") {
		t.Fatalf("chart:\n%s", c)
	}
}
