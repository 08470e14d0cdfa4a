// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 9): the VP-condition breakdown (Figure 1), the load
// overlap microbenchmark (Figure 2), the per-benchmark normalized CPI
// sweeps (Figures 7 and 8), the overhead breakdown with LP/EP (Figure 9),
// the network traffic analysis (Section 9.1.3), and the hardware structure
// studies (Sections 9.2.1-9.2.4). Each experiment returns a renderable
// result; cmd/plbench and the bench_test.go harness drive them.
//
// Experiments execute in two phases. First they enumerate their complete
// run set — every (benchmark, policy, config) simulation they will need —
// and hand it to Runner.runAll, which deduplicates the set by memoization
// key and executes it on a pool of Workers goroutines. Then they render:
// the same run calls are replayed sequentially and resolve as memo hits.
// A singleflight entry per key guarantees each simulation executes exactly
// once even when concurrent experiments request overlapping keys (every
// figure normalizes against the same Unsafe baselines), and parallel
// execution is bit-identical to sequential execution because each
// simulation is a deterministic function of its key and parameters.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// Params controls simulation length; the defaults trade precision for
// wall-clock time on a laptop-class machine.
type Params struct {
	Warmup  int64
	Measure int64
	Seed    uint64
}

// DefaultParams returns the standard experiment sizing.
func DefaultParams() Params { return Params{Warmup: 15_000, Measure: 60_000, Seed: 1} }

// QuickParams returns a fast sizing for tests and smoke runs.
func QuickParams() Params { return Params{Warmup: 2_000, Measure: 8_000, Seed: 1} }

// runReq names one simulation an experiment needs: the workload, the
// defense policy, and an optional config override. Memoization is
// content-addressed over the effective configuration itself, so two
// requests dedupe exactly when they describe the same simulation.
type runReq struct {
	bench trace.Source
	pol   defense.Policy
	cfg   *arch.Config
}

// normalizePolicy folds a full-Comprehensive condition override into the
// plain Comp variant; normalizing lets the Figure 1/9 mask sweeps reuse
// the Figure 7/8 runs.
func normalizePolicy(pol defense.Policy) defense.Policy {
	if pol.Conds == defense.CondsComprehensive && pol.Variant == defense.Comp {
		pol.Conds = 0
	}
	return pol
}

// RemoteRunner dispatches a simulation to a plserved instance instead of
// executing it locally. The service/client SDK implements it; cmd/plbench
// installs it behind the -server flag.
type RemoteRunner interface {
	Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error)
}

// Runner executes simulations with memoization so experiments can share
// baselines. run is safe for concurrent use; runAll spreads a request set
// over a worker pool. The zero Workers value uses every available CPU.
type Runner struct {
	P Params
	// Workers bounds how many simulations execute concurrently in
	// runAll; 0 (or negative) means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, receives a line per completed simulation.
	// Lines are delivered in deterministic enumeration order regardless
	// of worker interleaving, and never concurrently.
	Progress func(string)
	// Remote, when non-nil, offloads eligible runs (registered benchmark
	// proxies) to a simulation service; custom workloads — scripts, trace
	// replays, the Figure 2 micro-profiles — always simulate locally
	// because the service can only name what its registry holds.
	Remote RemoteRunner

	memo   *simcache.Memo
	sims   atomic.Int64
	remote atomic.Int64
}

// NewRunner returns a Runner with the given parameters.
func NewRunner(p Params) *Runner {
	return &Runner{P: p, memo: simcache.NewMemo(simcache.NewMemory(0))}
}

// Simulations returns how many simulations actually executed locally
// (memo hits and remote runs excluded); tests use it to assert
// singleflight deduplication.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// RemoteRuns returns how many simulations the Remote hook served.
func (r *Runner) RemoteRuns() int64 { return r.remote.Load() }

// describe returns one simulation of bench under the policy at the
// runner's sizing as a simrun.Run: the same description, defaults and key
// the public API and the simulation service use, so a result computed by
// any of them names the others'.
func (r *Runner) describe(bench trace.Source, pol defense.Policy, cfg *arch.Config) simrun.Run {
	return simrun.Run{
		Benchmark: bench.Name(),
		Cores:     bench.Cores(),
		Policy:    normalizePolicy(pol),
		Config:    cfg,
		Params:    simrun.Params{Seed: r.P.Seed, Warmup: r.P.Warmup, Measure: r.P.Measure},
	}
}

// key returns a request's content-addressed memoization key.
func (r *Runner) key(q runReq) string {
	run := r.describe(q.bench, q.pol, q.cfg)
	return run.Key()
}

// run executes (or recalls) one simulation of bench under the policy. It
// is safe for concurrent use: the first caller for a key simulates, every
// other caller blocks until that simulation finishes and shares its
// result. Failures are returned as errors, never panics, and are
// memoized like results.
func (r *Runner) run(bench trace.Source, pol defense.Policy, cfg *arch.Config) (*simrun.Output, error) {
	run := r.describe(bench, pol, cfg)
	key := run.Key() // normalizes run
	return r.memo.Do(key, func() (*simrun.Output, error) {
		return r.simulate(bench, run, cfg)
	})
}

// get resolves a request through the memo cache.
func (r *Runner) get(q runReq) (*simrun.Output, error) {
	return r.run(q.bench, q.pol, q.cfg)
}

// simulate executes one simulation in the calling goroutine, remotely
// when a Remote hook is installed and the workload is service-addressable,
// locally otherwise (via the shared simrun path, which snapshots counters
// and hardware summaries and recovers panics into errors). cfg is the
// request's own machine override, nil for the default.
func (r *Runner) simulate(bench trace.Source, run simrun.Run, cfg *arch.Config) (*simrun.Output, error) {
	if r.Remote != nil {
		if spec, ok := remoteSpec(bench, run, cfg); ok {
			out, err := r.Remote.Run(context.Background(), spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: remote %s %s: %w", bench.Name(), run.Policy, err)
			}
			r.remote.Add(1)
			return out, nil
		}
	}
	out, err := simrun.Execute(context.Background(), bench, run.Policy, run.Config, run.Params)
	if err != nil {
		return nil, err
	}
	r.sims.Add(1)
	return out, nil
}

// remoteSpec converts a run into a service job when the workload is a
// benchmark proxy the service's registry also holds (same name, same
// parameters — registries return fresh instances, so compare by value).
// The machine travels only when the request overrode it; the service
// resolves the default machine itself.
func remoteSpec(bench trace.Source, run simrun.Run, cfg *arch.Config) (service.JobSpec, bool) {
	p, ok := bench.(*trace.Profile)
	if !ok {
		return service.JobSpec{}, false
	}
	reg := trace.ByName(p.BenchName)
	if reg == nil || !reflect.DeepEqual(reg, p) {
		return service.JobSpec{}, false
	}
	if cfg != nil {
		cfg = run.Config
	}
	return service.JobSpec{
		Benchmark:   p.BenchName,
		Scheme:      run.Policy.Scheme.String(),
		Variant:     run.Policy.Variant.String(),
		Consistency: run.Policy.Consistency.String(),
		Conds:       run.Policy.VPConds().Names(),
		Seed:        run.Seed,
		Warmup:      run.Warmup,
		Measure:     run.Measure,
		Config:      cfg,
	}, true
}

// runAll executes a request set on the worker pool: it deduplicates the
// set by memoization key (preserving first-occurrence order), spreads the
// unique requests over Workers goroutines, and delivers Progress lines in
// enumeration order. The pool always drains — a failed simulation never
// wedges it — and every failure is reported, joined into one error.
func (r *Runner) runAll(reqs []runReq) error {
	seen := make(map[string]bool, len(reqs))
	var unique []runReq
	for _, q := range reqs {
		if k := r.key(q); !seen[k] {
			seen[k] = true
			unique = append(unique, q)
		}
	}
	if len(unique) == 0 {
		return nil
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(unique) {
		workers = len(unique)
	}

	// Completed requests are flushed to Progress strictly in slot order:
	// a worker finishing slot i may flush slots [next, i] once every
	// earlier slot is done. Workers ahead of the flush frontier park
	// their line and move on.
	type slot struct {
		line string
		err  error
		done bool
	}
	slots := make([]slot, len(unique))
	var (
		pmu  sync.Mutex
		next int
	)
	finish := func(i int, line string, err error) {
		pmu.Lock()
		defer pmu.Unlock()
		slots[i] = slot{line: line, err: err, done: true}
		for next < len(slots) && slots[next].done {
			if r.Progress != nil && slots[next].line != "" {
				r.Progress(slots[next].line)
			}
			next++
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				q := unique[i]
				out, err := r.get(q)
				var line string
				if err == nil {
					line = fmt.Sprintf("%-16s %-14s CPI=%.3f",
						q.bench.Name(), normalizePolicy(q.pol), out.CPI)
				}
				finish(i, line, err)
			}
		}()
	}
	for i := range unique {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var errs []error
	for _, s := range slots {
		if s.err != nil {
			errs = append(errs, s.err)
		}
	}
	return errors.Join(errs...)
}

// unsafeCPI returns the Unsafe-baseline CPI for the benchmark.
func (r *Runner) unsafeCPI(bench trace.Source) (float64, error) {
	out, err := r.run(bench, defense.Policy{Scheme: defense.Unsafe}, nil)
	if err != nil {
		return 0, err
	}
	return out.CPI, nil
}

// normalized returns the benchmark's CPI under the policy, normalized to
// the Unsafe baseline.
func (r *Runner) normalized(bench trace.Source, pol defense.Policy) (float64, error) {
	out, err := r.run(bench, pol, nil)
	if err != nil {
		return 0, err
	}
	base, err := r.unsafeCPI(bench)
	if err != nil {
		return 0, err
	}
	return out.CPI / base, nil
}

// unsafeReq is the baseline request every normalization depends on.
func unsafeReq(bench trace.Source) runReq {
	return runReq{bench: bench, pol: defense.Policy{Scheme: defense.Unsafe}}
}

// table is a simple fixed-width text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// suiteBenches returns the benchmarks of a suite sorted by name.
func suiteBenches(suite string) []*trace.Profile {
	benches := trace.Suites()[suite]
	sort.Slice(benches, func(i, j int) bool { return benches[i].BenchName < benches[j].BenchName })
	return benches
}
