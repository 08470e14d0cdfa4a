package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"pinnedloads/internal/defense"
	"pinnedloads/internal/experiments"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// jobLog records the jobs of one pass: each job's host latency from request
// to result, its output, and failures.
type jobLog struct {
	mu     sync.Mutex
	lat    []float64          // ms, in completion order
	byKey  map[string]float64 // ms, latest per job key
	outs   map[string]*simrun.Output
	failed int
}

func newJobLog() *jobLog {
	return &jobLog{byKey: map[string]float64{}, outs: map[string]*simrun.Output{}}
}

func (l *jobLog) add(key string, d time.Duration, out *simrun.Output, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lat = append(l.lat, millis(d))
	l.byKey[key] = millis(d)
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", key, err)
		return
	}
	l.outs[key] = out
}

func (l *jobLog) attempted() int { return len(l.lat) }

// busy is the summed latency of every job, in seconds.
func (l *jobLog) busy() float64 {
	var s float64
	for _, ms := range l.lat {
		s += ms / 1e3
	}
	return s
}

// retired is the number of instructions the simulated cores retired over
// every job of the pass, warmup included.
func (l *jobLog) retired() uint64 {
	var n uint64
	for _, out := range l.outs {
		n += out.Counters["retired"]
	}
	return n
}

// digest hashes every simulated statistic of the pass — each job's
// canonical result CSV, in key order — plus the rendered figure CSV, if
// any. Two passes with equal digests produced identical outputs.
func (l *jobLog) digest(figure []byte) string {
	keys := make([]string, 0, len(l.outs))
	for k := range l.outs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write(figure)
	for _, k := range keys {
		fmt.Fprintf(h, "\n%s\n", k)
		h.Write(l.outs[k].MarshalCSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// latencies pools the job latencies of several logs.
func latencies(logs []*jobLog) []float64 {
	var all []float64
	for _, l := range logs {
		all = append(all, l.lat...)
	}
	return all
}

// recorded holds the output digests committed for the default seed and the
// held-out seed, per traffic (fig7 is shared by fig7-inproc and
// served-fig7). A run at one of these seeds must reproduce them exactly.
//
//go:embed digests.json
var recordedJSON []byte

func recordedDigest(traffic string, seed uint64) (string, bool) {
	var m map[string]map[string]string
	if err := json.Unmarshal(recordedJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	d, ok := m[traffic][strconv.FormatUint(seed, 10)]
	return d, ok
}

// checkDigest compares a pass's digest with the reference one, and on the
// first pass also with the recorded digest for this seed.
func (b *bench) checkDigest(traffic, what, got, ref string) {
	fmt.Fprintf(os.Stderr, "perfbench: digest %s seed=%d %s %s\n", traffic, b.seed, what, got)
	if ref != "" {
		b.check(got == ref, "%s: %s digest %s differs from the reference pass %s", traffic, what, got, ref)
		return
	}
	if want, ok := recordedDigest(traffic, b.seed); ok {
		b.check(got == want, "%s: %s digest %s differs from the recorded %s", traffic, what, got, want)
	}
}

// timed wraps a Runner's Remote hook: it times each job from the call to
// its result and logs the outcome.
type timed struct {
	next experiments.RemoteRunner
	log  *jobLog
}

func (t timed) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	key := jobKey(spec)
	start := time.Now()
	out, err := t.next.Run(ctx, spec)
	t.log.add(key, time.Since(start), out, err)
	return out, err
}

// jobKey is the job's content-addressed ID, the service's job ID.
func jobKey(spec service.JobSpec) string {
	if err := spec.Normalize(); err != nil {
		return spec.Benchmark
	}
	return spec.Key()
}

// simFunc executes one simulation.
type simFunc func(ctx context.Context, w trace.Source, pol defense.Policy, p simrun.Params) (*simrun.Output, error)

// execute is the untraced simFunc: the call experiments.Runner's local path
// makes, with the paper machine at the workload's core count.
func execute(ctx context.Context, w trace.Source, pol defense.Policy, p simrun.Params) (*simrun.Output, error) {
	return simrun.Execute(ctx, w, pol, nil, p)
}

// local runs a Runner's jobs in-process, in the runner's own worker
// goroutines, through a simcache memo: the first request for a key
// simulates, a repeat is a cache read.
type local struct {
	memo *simcache.Memo
	sim  simFunc
}

func newLocal(c simcache.Cache, sim simFunc) local {
	return local{memo: simcache.NewMemo(c), sim: sim}
}

func (l local) Run(ctx context.Context, spec service.JobSpec) (*simrun.Output, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	w := trace.ByName(spec.Benchmark)
	pol, err := policyOf(spec)
	if err != nil {
		return nil, err
	}
	return l.memo.Do(spec.Key(), func() (*simrun.Output, error) {
		return l.sim(ctx, w, pol, simrun.Params{Seed: spec.Seed, Warmup: spec.Warmup, Measure: spec.Measure})
	})
}

// policyOf parses a normalized job spec's defense policy the way the
// service does.
func policyOf(spec service.JobSpec) (defense.Policy, error) {
	sch, err := defense.ParseScheme(spec.Scheme)
	if err != nil {
		return defense.Policy{}, err
	}
	v, err := defense.ParseVariant(spec.Variant)
	if err != nil {
		return defense.Policy{}, err
	}
	con, err := defense.ParseConsistency(spec.Consistency)
	if err != nil {
		return defense.Policy{}, err
	}
	var mask defense.Cond
	for _, name := range spec.Conds {
		c, err := defense.ParseCond(name)
		if err != nil {
			return defense.Policy{}, err
		}
		mask |= c
	}
	return defense.Policy{Scheme: sch, Variant: v, Conds: mask, Consistency: con}, nil
}

// sweep runs the Figure 7 SPEC17 sweep (21 proxies x 13 policies = 273
// simulations at plbench -quick sizing) through a fresh experiments.Runner
// with the given Remote hook, and returns the figure's CSV, the pass's
// host wall time and how many simulations the runner dispatched.
func sweep(seed uint64, remote experiments.RemoteRunner) ([]byte, time.Duration, int64, error) {
	p := experiments.QuickParams()
	p.Seed = seed
	r := experiments.NewRunner(p)
	r.Workers = workers
	r.Remote = remote
	start := time.Now()
	f, err := experiments.RunCPIFigure(r, "Figure 7 (SPEC17)", "SPEC17")
	wall := time.Since(start)
	if err != nil {
		return nil, wall, 0, err
	}
	csv, err := experiments.MarshalCSV(f)
	return csv, wall, r.Simulations() + r.RemoteRuns(), err
}
