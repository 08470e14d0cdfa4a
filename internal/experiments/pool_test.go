package experiments

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// TestConcurrentRunSingleflight hammers one key from many goroutines and
// checks that exactly one simulation executes and every caller shares it.
func TestConcurrentRunSingleflight(t *testing.T) {
	r := NewRunner(tinyParams())
	b := trace.ByName("leela_r")
	const n = 16
	outs := make([]*simrun.Output, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := r.run(b, defense.Policy{Scheme: defense.Unsafe}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
	if sims := r.Simulations(); sims != 1 {
		t.Fatalf("simulations = %d, want 1", sims)
	}
}

// TestRunAllDeduplicates checks that runAll collapses duplicate requests —
// including policies that only differ before normalization — so each key
// simulates exactly once.
func TestRunAllDeduplicates(t *testing.T) {
	r := NewRunner(tinyParams())
	r.Workers = 4
	b := trace.ByName("leela_r")
	comp := defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}
	compMask := comp
	compMask.Conds = defense.CondsComprehensive // normalizes to plain Comp
	reqs := []runReq{
		unsafeReq(b),
		unsafeReq(b),
		{bench: b, pol: comp},
		{bench: b, pol: compMask},
	}
	if err := r.runAll(reqs); err != nil {
		t.Fatal(err)
	}
	if sims := r.Simulations(); sims != 2 {
		t.Fatalf("simulations = %d, want 2 (unsafe + comp)", sims)
	}
}

// TestRunAllOverlappingSets runs two request sets with a shared baseline
// concurrently; the overlap must still simulate exactly once.
func TestRunAllOverlappingSets(t *testing.T) {
	r := NewRunner(tinyParams())
	r.Workers = 2
	b := trace.ByName("leela_r")
	setA := []runReq{unsafeReq(b), {bench: b, pol: defense.Policy{Scheme: defense.Fence, Variant: defense.Comp}}}
	setB := []runReq{unsafeReq(b), {bench: b, pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}}}
	var wg sync.WaitGroup
	for _, set := range [][]runReq{setA, setB} {
		wg.Add(1)
		go func(set []runReq) {
			defer wg.Done()
			if err := r.runAll(set); err != nil {
				t.Error(err)
			}
		}(set)
	}
	wg.Wait()
	if sims := r.Simulations(); sims != 3 {
		t.Fatalf("simulations = %d, want 3 (shared unsafe baseline)", sims)
	}
}

// TestRunAllOrderedProgress checks that Progress lines arrive in
// enumeration order no matter how the workers interleave.
func TestRunAllOrderedProgress(t *testing.T) {
	r := NewRunner(tinyParams())
	r.Workers = 4
	var lines []string
	r.Progress = func(s string) { lines = append(lines, s) }
	names := []string{"leela_r", "xz_r", "mcf_r", "gcc_r"}
	var reqs []runReq
	for _, n := range names {
		reqs = append(reqs, unsafeReq(trace.ByName(n)))
	}
	if err := r.runAll(reqs); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(names) {
		t.Fatalf("progress lines = %d, want %d", len(lines), len(names))
	}
	for i, n := range names {
		if !strings.HasPrefix(lines[i], n) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], n)
		}
	}
}

// TestRunAllPropagatesError checks that a failing simulation surfaces as
// an error (never a panic), that the pool drains the remaining requests,
// and that the failure is memoized like any other result.
func TestRunAllPropagatesError(t *testing.T) {
	r := NewRunner(tinyParams())
	r.Workers = 2
	b := trace.ByName("leela_r")
	bad := arch.PaperConfig(b.Cores())
	bad.ROBEntries = 0 // rejected by Config.Validate
	reqs := []runReq{
		{bench: b, pol: defense.Policy{Scheme: defense.Unsafe}, cfg: &bad},
		unsafeReq(b),
	}
	err := r.runAll(reqs)
	if err == nil {
		t.Fatal("invalid config produced no error")
	}
	if !strings.Contains(err.Error(), "leela_r") {
		t.Fatalf("error lacks context: %v", err)
	}
	// The healthy request must have completed despite the failure.
	if _, err := r.get(unsafeReq(b)); err != nil {
		t.Fatalf("pool did not drain past the failure: %v", err)
	}
	// The failure is memoized: re-requesting it returns the same error
	// without simulating again.
	before := r.Simulations()
	if _, err := r.run(b, defense.Policy{Scheme: defense.Unsafe}, &bad); err == nil {
		t.Fatal("memoized failure lost")
	}
	if r.Simulations() != before {
		t.Fatal("failed key re-simulated")
	}
}

// panicSource is a workload whose generator construction panics, modeling
// a bug deep inside a worker's simulation.
type panicSource struct{}

func (panicSource) Name() string { return "panic-src" }
func (panicSource) Cores() int   { return 1 }
func (panicSource) Generator(core int, seed uint64) trace.Generator {
	panic("generator exploded")
}

// TestRunRecoversPanic checks that a panic inside a simulation converts to
// an error instead of taking down the pool.
func TestRunRecoversPanic(t *testing.T) {
	r := NewRunner(tinyParams())
	r.Workers = 2
	err := r.runAll([]runReq{
		{bench: panicSource{}, pol: defense.Policy{Scheme: defense.Unsafe}},
		unsafeReq(trace.ByName("leela_r")),
	})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if _, err := r.get(unsafeReq(trace.ByName("leela_r"))); err != nil {
		t.Fatalf("pool did not survive the panic: %v", err)
	}
}

// deadlockSource is a two-core workload that stops retiring: core 0 spins
// on a barrier core 1 (which halts immediately) never reaches.
func deadlockSource() trace.Source {
	return &trace.Script{
		ScriptName: "deadlock",
		NumCores:   2,
		Insts: [][]isa.Inst{
			{{Op: isa.Barrier}},
			{},
		},
		Loop: true,
	}
}

// TestDeadlockErrorPropagates checks that core.System's progress-window
// backstop surfaces through the experiments layer as an error — the old
// Runner panicked here.
func TestDeadlockErrorPropagates(t *testing.T) {
	r := NewRunner(tinyParams())
	_, err := r.run(deadlockSource(), defense.Policy{Scheme: defense.Unsafe}, nil)
	if err == nil {
		t.Fatal("deadlocked workload returned no error")
	}
	if !strings.Contains(err.Error(), "no retirement progress") {
		t.Fatalf("error = %v, want progress-window backstop", err)
	}
	if err := r.runAll([]runReq{{bench: deadlockSource(), pol: defense.Policy{Scheme: defense.Unsafe}}}); err == nil {
		t.Fatal("runAll swallowed the deadlock error")
	}
}

// fakeRemote is a RemoteRunner that executes the job in-process through
// the shared simrun path, counting dispatches.
type fakeRemote struct {
	calls atomic.Int64
}

func (f *fakeRemote) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	f.calls.Add(1)
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	sch, _ := defense.ParseScheme(spec.Scheme)
	v, _ := defense.ParseVariant(spec.Variant)
	var mask defense.Cond
	for _, name := range spec.Conds {
		c, _ := defense.ParseCond(name)
		mask |= c
	}
	return simrun.Execute(ctx, trace.ByName(spec.Benchmark),
		defense.Policy{Scheme: sch, Variant: v, Conds: mask}, spec.Config,
		simrun.Params{Seed: spec.Seed, Warmup: spec.Warmup, Measure: spec.Measure})
}

// TestRemoteDispatch checks registered benchmark proxies are offloaded to
// the Remote hook while custom workloads keep simulating locally.
func TestRemoteDispatch(t *testing.T) {
	r := NewRunner(tinyParams())
	remote := &fakeRemote{}
	r.Remote = remote
	b := trace.ByName("leela_r")
	out, err := r.run(b, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.CPI <= 0 {
		t.Fatalf("remote result implausible: %+v", out)
	}
	if remote.calls.Load() != 1 || r.RemoteRuns() != 1 || r.Simulations() != 0 {
		t.Fatalf("remote=%d RemoteRuns=%d Simulations=%d, want 1/1/0",
			remote.calls.Load(), r.RemoteRuns(), r.Simulations())
	}
	// A resubmit is a memo hit — no second remote call.
	if _, err := r.run(b, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil); err != nil {
		t.Fatal(err)
	}
	if remote.calls.Load() != 1 {
		t.Fatalf("memo hit still dispatched remotely (%d calls)", remote.calls.Load())
	}
	// Custom workloads cannot be named at the service; they stay local.
	script := &trace.Script{ScriptName: "local-only", NumCores: 1,
		Insts: [][]isa.Inst{{{Op: isa.ALU}}}, Loop: true}
	if _, err := r.run(script, defense.Policy{Scheme: defense.Unsafe}, nil); err != nil {
		t.Fatal(err)
	}
	if remote.calls.Load() != 1 || r.Simulations() != 1 {
		t.Fatalf("custom workload went remote (remote=%d local=%d)",
			remote.calls.Load(), r.Simulations())
	}
	// Remote results match local results bit for bit (same deterministic
	// simulation), so figures are identical either way.
	local := NewRunner(tinyParams())
	want, err := local.run(b, defense.Policy{Scheme: defense.Fence, Variant: defense.EP}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.CPI != want.CPI {
		t.Fatalf("remote CPI %v != local CPI %v", out.CPI, want.CPI)
	}
}
