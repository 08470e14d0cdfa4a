package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"pinnedloads"
	"pinnedloads/internal/arch"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/experiments"
	"pinnedloads/internal/simcache"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// pass is one cold pass over a workload's jobs followed by a warm pass that
// repeats them against the cache the cold pass filled.
type pass struct {
	wall     time.Duration // cold half
	elapsed  time.Duration // whole pass, set-up and warm half included
	heapMB   float64       // peak live heap during the cold pass
	executed int64         // simulations the experiment runner dispatched
	cold     *jobLog
	warm     *jobLog
	// digests of every simulated statistic of each half (see jobLog.digest)
	coldDigest, warmDigest string
}

// setEndToEnd reports the end-to-end metrics of a run's passes.
func (b *bench) setEndToEnd(passes []pass, setup []float64) {
	var walls, kips, heaps []float64
	var cold, warm []*jobLog
	for i, p := range passes {
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3fs, heap peak %.1f MiB\n", i, seconds(p.wall), p.heapMB)
		walls = append(walls, seconds(p.wall))
		kips = append(kips, float64(p.cold.retired())/1e3/seconds(p.wall))
		heaps = append(heaps, p.heapMB)
		cold = append(cold, p.cold)
		warm = append(warm, p.warm)
		b.jobs(p.cold)
		b.jobs(p.warm)
	}
	coldLat, warmLat := latencies(cold), latencies(warm)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d cold and %d warm job samples, %d set-up samples\n",
		len(passes), len(coldLat), len(warmLat), len(setup))
	b.set("wall_s", median(walls), "s")
	b.set("sim_kips", median(kips), "kinst/s")
	b.set("job_p50_ms", quantile(coldLat, 0.50), "ms")
	b.set("job_p95_ms", quantile(coldLat, 0.95), "ms")
	b.set("warm_job_p50_ms", quantile(warmLat, 0.50), "ms")
	b.set("warm_job_p95_ms", quantile(warmLat, 0.95), "ms")
	b.set("setup_s", median(setup), "s")
	b.set("heap_peak_mb", median(heaps), "MiB")
}

// checkPass compares a pass's digests with the reference digest: the warm
// half must reproduce the cold half, and the cold half the reference (or,
// with no reference yet, the digest recorded for this seed).
func (b *bench) checkPass(traffic string, p pass, ref string) {
	b.checkDigest(traffic, "cold", p.coldDigest, ref)
	b.check(p.warmDigest == p.coldDigest, "%s: warm pass digest %s differs from cold %s",
		traffic, p.warmDigest, p.coldDigest)
}

// setupCoreNew measures set-up for the in-process workloads: building one
// system (core.New, LLC prewarm included) per distinct proxy.
func setupCoreNew(ws []trace.Source, seed uint64) ([]float64, error) {
	return setupSamples(func() (time.Duration, error) { return buildSystems(ws, seed) })
}

// buildSystems times building one system per workload.
func buildSystems(ws []trace.Source, seed uint64) (time.Duration, error) {
	start := time.Now()
	for _, w := range ws {
		if _, err := core.New(arch.PaperConfig(w.Cores()), defense.Policy{}, w, seed); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func spec17() []trace.Source {
	var ws []trace.Source
	for _, p := range trace.SPEC17() {
		ws = append(ws, p)
	}
	return ws
}

// fig7Pass runs the Figure 7 sweep cold, executing each job in-process with
// sim, then warm through a second fresh Runner whose jobs hit the cache.
func fig7Pass(b *bench, sim simFunc, c simcache.Cache) (p pass, err error) {
	p = pass{cold: newJobLog(), warm: newJobLog()}
	start := time.Now()
	defer func() { p.elapsed = time.Since(start) }()
	ex := newLocal(c, sim)
	h := startHeapPeak()
	csv, wall, executed, err := sweep(b.seed, timed{ex, p.cold})
	p.heapMB = h.mb()
	if err != nil {
		return p, err
	}
	p.wall, p.executed = wall, executed
	p.coldDigest = p.cold.digest(csv)
	for i := 0; i < warmRepeats(p.cold.attempted()); i++ {
		warmStart()
		wcsv, _, _, err := sweep(b.seed, timed{ex, p.warm})
		if err != nil {
			return p, err
		}
		p.setWarmDigest(i, p.warm.digest(wcsv))
	}
	return p, nil
}

// setWarmDigest records the digest of warm repeat i: the first one, or any
// later one that differs from the cold half.
func (p *pass) setWarmDigest(i int, d string) {
	if i == 0 || d != p.coldDigest {
		p.warmDigest = d
	}
}

func fig7Run(b *bench) error {
	setup, err := setupCoreNew(spec17(), b.seed)
	if err != nil {
		return err
	}
	b.deadline = time.Now().Add(b.budget)
	var passes []pass
	ref := ""
	for b.more(len(passes), lastElapsed(passes)) {
		p, err := fig7Pass(b, execute, simcache.NewMemory(0))
		if err != nil {
			return err
		}
		b.checkPass("fig7", p, ref)
		ref = p.coldDigest
		passes = append(passes, p)
	}
	b.setEndToEnd(passes, setup)
	return nil
}

// lastElapsed is how long the latest pass took, the estimate for the next.
func lastElapsed(passes []pass) time.Duration {
	if len(passes) == 0 {
		return 0
	}
	return passes[len(passes)-1].elapsed
}

// tracedRounds runs a traced workload's rounds until the budget is spent:
// each round is an untraced pass, for reference outputs and wall time,
// then the same pass traced. It checks the untraced pass against ref (or,
// when ref is empty, the recorded digest), that the traced pass reproduces
// the untraced outputs, and that the deterministic work counts repeat
// exactly; it reports the tracing overhead and the experiment pool's
// occupancy, and returns the number of rounds.
//
// round returns the two passes, the traced pass's work counts, and the time
// the traced pass spent on measurements other than tracing.
func (b *bench) tracedRounds(traffic, ref string, round func() (untraced, traced pass, counts string, extra time.Duration, err error)) (int, error) {
	var uWall, tWall, busy []float64
	var firstCounts string
	var executed int64
	rounds := 0
	last := time.Duration(0)
	for b.more(rounds, last) {
		start := time.Now()
		u, t, counts, extra, err := round()
		if err != nil {
			return rounds, err
		}
		b.checkPass(traffic, u, ref)
		ref = u.coldDigest
		b.check(t.coldDigest == u.coldDigest, "%s: traced pass digest %s differs from untraced %s",
			traffic, t.coldDigest, u.coldDigest)
		b.check(t.warmDigest == t.coldDigest, "%s: traced warm digest differs from traced cold", traffic)
		if rounds == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: work counts %s\n", counts)
			firstCounts = counts
		}
		b.check(counts == firstCounts, "%s: work counts of round %d differ from round 0: %s", traffic, rounds, counts)
		for _, p := range []pass{u, t} {
			b.jobs(p.cold)
			b.jobs(p.warm)
		}
		uWall = append(uWall, seconds(u.wall))
		tWall = append(tWall, seconds(t.wall-extra))
		if u.executed > 0 { // the pass ran on the experiment runner's pool
			busy = append(busy, u.cold.busy()/(workers*seconds(u.wall)))
		}
		executed = t.executed
		rounds++
		last = time.Since(start)
	}
	overhead := median(tWall) - median(uWall)
	b.set("tracing.overhead_s", overhead, "s")
	b.set("tracing.overhead_share", overhead/median(uWall), "ratio")
	b.set("experiments.executed", float64(executed), "count")
	if len(busy) == 0 {
		busy = []float64{0}
	}
	b.set("experiments.pool_busy_frac", median(busy), "ratio")
	return rounds, nil
}

func fig7Traced(b *bench) error {
	var total layerTimes
	caches := &timedCache{}
	rounds, err := b.tracedRounds("fig7", "", func() (pass, pass, string, time.Duration, error) {
		u, err := fig7Pass(b, execute, simcache.NewMemory(0))
		if err != nil {
			return u, u, "", 0, err
		}
		tr := &tracer{}
		c := &timedCache{next: simcache.NewMemory(0)}
		t, err := fig7Pass(b, tr.sim, c)
		total.add(&tr.total)
		caches.add(c)
		return u, t, tr.total.counts.String(), 0, err
	})
	if err != nil {
		return err
	}
	b.setLayerMetrics(&total, rounds)
	caches.setMetrics(b)
	b.setServiceMetrics(nil)
	return nil
}

// splashProxies are the 8-core SPLASH2/PARSEC proxies of splash8: ocean_cp
// and radix write-share through the directory, canneal has the largest
// working set and the most Defer/NACK traffic under pinning.
var splashProxies = []string{"ocean_cp", "canneal", "radix"}

// splashPolicies are Unsafe and the pinning configurations (LP and EP) of
// every defense scheme.
func splashPolicies() []defense.Policy {
	pols := []defense.Policy{{Scheme: defense.Unsafe}}
	for _, s := range defense.Schemes() {
		for _, v := range []defense.Variant{defense.LP, defense.EP} {
			pols = append(pols, defense.Policy{Scheme: s, Variant: v})
		}
	}
	return pols
}

func splashSpecs(seed uint64) []pinnedloads.RunSpec {
	q := experiments.QuickParams()
	var specs []pinnedloads.RunSpec
	for _, name := range splashProxies {
		for _, pol := range splashPolicies() {
			specs = append(specs, pinnedloads.RunSpec{Benchmark: name, Scheme: pol.Scheme,
				Variant: pol.Variant, Seed: seed, Warmup: q.Warmup, Measure: q.Measure})
		}
	}
	return specs
}

// runLib is splash8's untraced simulation: one pinnedloads.Run, as plsim
// makes it.
func runLib(spec pinnedloads.RunSpec) (*simrun.Output, error) {
	res, err := pinnedloads.Run(spec)
	if err != nil {
		return nil, err
	}
	return &simrun.Output{CPI: res.CPI, Cycles: res.Cycles, Insts: res.Insts,
		Counters: res.Counters.Snapshot()}, nil
}

// splashPass runs every splash8 job once, one at a time, through a simcache
// memo keyed by pinnedloads.SpecKey (cold), then again (warm).
func splashPass(b *bench, sim func(pinnedloads.RunSpec) (*simrun.Output, error), c simcache.Cache) (p pass, err error) {
	p = pass{cold: newJobLog(), warm: newJobLog()}
	begin := time.Now()
	defer func() { p.elapsed = time.Since(begin) }()
	memo := simcache.NewMemo(c)
	specs := splashSpecs(b.seed)
	half := func(log *jobLog) error {
		for _, spec := range specs {
			start := time.Now()
			key, err := pinnedloads.SpecKey(spec)
			if err != nil {
				return err
			}
			out, err := memo.Do(key, func() (*simrun.Output, error) { return sim(spec) })
			log.add(key, time.Since(start), out, err)
		}
		return nil
	}
	h := startHeapPeak()
	start := time.Now()
	err = half(p.cold)
	p.wall = time.Since(start)
	p.heapMB = h.mb()
	if err != nil {
		return p, err
	}
	p.coldDigest = p.cold.digest(nil)
	for i := 0; i < warmRepeats(len(specs)); i++ {
		warmStart()
		if err := half(p.warm); err != nil {
			return p, err
		}
		p.setWarmDigest(i, p.warm.digest(nil))
	}
	return p, nil
}

func splashSources() []trace.Source {
	var ws []trace.Source
	for _, name := range splashProxies {
		ws = append(ws, trace.ByName(name))
	}
	return ws
}

func splashRun(b *bench) error {
	setup, err := setupCoreNew(splashSources(), b.seed)
	if err != nil {
		return err
	}
	b.deadline = time.Now().Add(b.budget)
	var passes []pass
	ref := ""
	for b.more(len(passes), lastElapsed(passes)) {
		p, err := splashPass(b, runLib, simcache.NewMemory(0))
		if err != nil {
			return err
		}
		b.checkPass("splash8", p, ref)
		ref = p.coldDigest
		passes = append(passes, p)
	}
	b.setEndToEnd(passes, setup)
	return nil
}

func splashTraced(b *bench) error {
	var total layerTimes
	caches := &timedCache{}
	rounds, err := b.tracedRounds("splash8", "", func() (pass, pass, string, time.Duration, error) {
		u, err := splashPass(b, runLib, simcache.NewMemory(0))
		if err != nil {
			return u, u, "", 0, err
		}
		tr := &tracer{ckpt: true}
		sim := func(spec pinnedloads.RunSpec) (*simrun.Output, error) {
			return tr.sim(context.Background(), trace.ByName(spec.Benchmark),
				defense.Policy{Scheme: spec.Scheme, Variant: spec.Variant},
				simrun.Params{Seed: spec.Seed, Warmup: spec.Warmup, Measure: spec.Measure})
		}
		c := &timedCache{next: simcache.NewMemory(0)}
		t, err := splashPass(b, sim, c)
		total.add(&tr.total)
		caches.add(c)
		return u, t, tr.total.counts.String(), tr.total.ckptAll, err
	})
	if err != nil {
		return err
	}
	b.setLayerMetrics(&total, rounds)
	caches.setMetrics(b)
	b.setServiceMetrics(nil)
	return nil
}

// timedCache times every Get and Put of the cache it wraps and counts hits.
// The zero value with no next cache only accumulates other timedCaches.
type timedCache struct {
	next             simcache.Cache
	mu               sync.Mutex
	gets, hits, puts int64
	get, put         time.Duration
}

func (c *timedCache) Get(key string) (*simrun.Output, bool, error) {
	start := time.Now()
	out, ok, err := c.next.Get(key)
	d := time.Since(start)
	c.mu.Lock()
	c.gets++
	c.get += d
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return out, ok, err
}

func (c *timedCache) Put(key string, out *simrun.Output) error {
	start := time.Now()
	err := c.next.Put(key, out)
	d := time.Since(start)
	c.mu.Lock()
	c.puts++
	c.put += d
	c.mu.Unlock()
	return err
}

func (c *timedCache) add(o *timedCache) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.gets += o.gets
	c.hits += o.hits
	c.puts += o.puts
	c.get += o.get
	c.put += o.put
}

func (c *timedCache) setMetrics(b *bench) {
	b.set("simcache.get_ms", ratio(millis(c.get), float64(c.gets)), "ms")
	b.set("simcache.put_ms", ratio(millis(c.put), float64(c.puts)), "ms")
	b.set("simcache.hit_ratio", ratio(float64(c.hits), float64(c.gets)), "ratio")
}
