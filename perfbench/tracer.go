package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/pipeline"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// layerTimes is what the traced cycle loop measures at the simulator's
// layer boundaries: host time inside each layer's public calls, and the
// work each layer did.
type layerTimes struct {
	runs  int64
	setup time.Duration // core.New, LLC prewarm included
	// loop is the whole timed cycle loop; mem, cores and gen are the time
	// inside coherence.System.Tick, pipeline.Core.Tick and the workload
	// generator's Next/WrongPath. Generator calls happen inside Core.Tick.
	loop, mem, cores, gen time.Duration

	ckpts                    int64
	ckptCapture, ckptRestore time.Duration
	// ckptAll is the whole checkpoint measurement, verification included:
	// work the traced run adds that is not tracing overhead.
	ckptAll time.Duration

	counts workCounts
}

// workCounts are the deterministic work counts of a traced pass. They are
// functions of the simulated inputs alone, so every pass at one seed must
// produce the same values on any host.
type workCounts struct {
	cycles    int64 // simulated cycles, warmup included
	genCalls  int64 // instructions generated, wrong path included
	flits     uint64
	ckptBytes int64
	counters  map[string]uint64 // simulator event counters, summed
}

func (c *workCounts) add(o *workCounts) {
	c.cycles += o.cycles
	c.genCalls += o.genCalls
	c.flits += o.flits
	c.ckptBytes += o.ckptBytes
	if c.counters == nil {
		c.counters = map[string]uint64{}
	}
	for k, v := range o.counters {
		c.counters[k] += v
	}
}

func (c *workCounts) String() string {
	names := make([]string, 0, len(c.counters))
	for n := range c.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d gen=%d flits=%d ckpt_bytes=%d", c.cycles, c.genCalls, c.flits, c.ckptBytes)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, c.counters[n])
	}
	return b.String()
}

func (l *layerTimes) add(o *layerTimes) {
	l.runs += o.runs
	l.setup += o.setup
	l.loop += o.loop
	l.mem += o.mem
	l.cores += o.cores
	l.gen += o.gen
	l.ckpts += o.ckpts
	l.ckptCapture += o.ckptCapture
	l.ckptRestore += o.ckptRestore
	l.ckptAll += o.ckptAll
	l.counts.add(&o.counts)
}

// tracer is a simFunc that drives each simulation's cycle loop from the
// benchmark, timing the calls into every layer, and sums the layer times of
// all its simulations. With ckpt set it also times a checkpoint capture and
// restore at each run's warmup boundary.
type tracer struct {
	ckpt  bool
	mu    sync.Mutex
	total layerTimes
}

func (t *tracer) sim(ctx context.Context, w trace.Source, pol defense.Policy, p simrun.Params) (*simrun.Output, error) {
	var lt layerTimes
	out, err := tracedRun(w, pol, arch.PaperConfig(w.Cores()), p, t.ckpt, &lt)
	t.mu.Lock()
	t.total.add(&lt)
	t.mu.Unlock()
	return out, err
}

// progressWindow bounds how long the traced loop tolerates zero retirement,
// like core.System.Run does.
const progressWindow = 200_000

// tracedRun executes one simulation with the same cycle loop as
// core.System.RunContext — warmup to the warmup target, then measurement to
// warmup+measure — so its output equals an untraced run's exactly.
func tracedRun(w trace.Source, pol defense.Policy, cfg arch.Config, p simrun.Params, ckpt bool, lt *layerTimes) (out *simrun.Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("traced %s %s: panic: %v", w.Name(), pol, r)
		}
	}()
	start := time.Now()
	sys, err := core.New(cfg, pol, &timedSource{Source: w, lt: lt}, p.Seed)
	lt.setup += time.Since(start)
	if err != nil {
		return nil, err
	}
	lt.runs++
	l := &cycleLoop{sys: sys, lt: lt}
	for i := 0; i < max(cfg.Cores, w.Cores()); i++ {
		l.cores = append(l.cores, sys.Core(i))
	}
	begin, err := l.runUntil(p.Warmup)
	if err != nil {
		return nil, err
	}
	if ckpt {
		if err := checkpointRoundTrip(sys, w, cfg, pol, p.Seed, lt); err != nil {
			return nil, err
		}
	}
	end, err := l.runUntil(p.Warmup + p.Measure)
	if err != nil {
		return nil, err
	}
	cycles := end - begin
	counters := sys.Counters().Snapshot()
	lt.counts.add(&workCounts{cycles: l.cycle, flits: sys.Mem().Mesh().Flits(), counters: counters})
	return &simrun.Output{
		CPI:      float64(cycles) / float64(p.Measure),
		Cycles:   cycles,
		Insts:    p.Measure,
		Counters: counters,
	}, nil
}

// cycleLoop is core.System's cycle loop, run from outside the system.
type cycleLoop struct {
	sys   *core.System
	cores []*pipeline.Core
	cycle int64
	lt    *layerTimes
}

// runUntil advances the system until every core has retired target
// instructions or halted, and returns the cycle the last core got there.
func (l *cycleLoop) runUntil(target int64) (int64, error) {
	if target <= 0 {
		return l.cycle, nil
	}
	for _, c := range l.cores {
		c.SetTarget(target)
	}
	start := time.Now()
	defer func() { l.lt.loop += time.Since(start) }()
	mem := l.sys.Mem()
	lastProgress, lastRetired := l.cycle, l.retired()
	for {
		done := true
		for _, c := range l.cores {
			if c.DoneCycle() < 0 && !c.Halted() {
				done = false
				break
			}
		}
		if done {
			break
		}
		if l.cycle&4095 == 0 {
			if r := l.retired(); r > lastRetired {
				lastRetired, lastProgress = r, l.cycle
			} else if l.cycle-lastProgress > progressWindow {
				return 0, fmt.Errorf("no retirement progress for %d cycles at cycle %d", progressWindow, l.cycle)
			}
		}
		l.cycle++
		t0 := time.Now()
		mem.Tick(l.cycle)
		t1 := time.Now()
		for _, c := range l.cores {
			c.Tick(l.cycle)
		}
		t2 := time.Now()
		l.lt.mem += t1.Sub(t0)
		l.lt.cores += t2.Sub(t1)
	}
	end := l.cycle
	for _, c := range l.cores {
		if d := c.DoneCycle(); d > end {
			end = d
		}
	}
	return end, nil
}

func (l *cycleLoop) retired() int64 {
	var n int64
	for _, c := range l.cores {
		n += c.Retired()
	}
	return n
}

// checkpointRoundTrip times checkpoint.Capture of the running system and
// checkpoint.Restore of the blob into a freshly built one, and checks that
// the restored system captures to the same bytes.
func checkpointRoundTrip(sys *core.System, w trace.Source, cfg arch.Config, pol defense.Policy, seed uint64, lt *layerTimes) error {
	all := time.Now()
	defer func() { lt.ckptAll += time.Since(all) }()
	start := time.Now()
	blob, err := checkpoint.Capture(sys, w.Name())
	lt.ckptCapture += time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint capture: %w", err)
	}
	fresh, err := core.New(cfg, pol, w, seed)
	if err != nil {
		return err
	}
	start = time.Now()
	_, err = checkpoint.Restore(blob, fresh)
	lt.ckptRestore += time.Since(start)
	if err != nil {
		return fmt.Errorf("checkpoint restore: %w", err)
	}
	again, err := checkpoint.Capture(fresh, w.Name())
	if err != nil {
		return fmt.Errorf("checkpoint capture after restore: %w", err)
	}
	if !bytes.Equal(again, blob) {
		return fmt.Errorf("checkpoint of the restored system differs from the original")
	}
	lt.ckpts++
	lt.counts.ckptBytes += int64(len(blob))
	return nil
}

// timedSource hands core.New generators that time every instruction they
// produce.
type timedSource struct {
	trace.Source
	lt *layerTimes
}

func (s *timedSource) Generator(core int, seed uint64) trace.Generator {
	return &timedGen{g: s.Source.Generator(core, seed), lt: s.lt}
}

// WarmLines forwards the workload's LLC working set, which core.New
// pre-warms when the source provides it.
func (s *timedSource) WarmLines(core int) []uint64 {
	if w, ok := s.Source.(interface{ WarmLines(int) []uint64 }); ok {
		return w.WarmLines(core)
	}
	return nil
}

type timedGen struct {
	g  trace.Generator
	lt *layerTimes
}

func (g *timedGen) Next() isa.Inst {
	start := time.Now()
	in := g.g.Next()
	g.lt.gen += time.Since(start)
	g.lt.counts.genCalls++
	return in
}

func (g *timedGen) WrongPath() isa.Inst {
	start := time.Now()
	in := g.g.WrongPath()
	g.lt.gen += time.Since(start)
	g.lt.counts.genCalls++
	return in
}

// SaveState and LoadState forward checkpointing to the wrapped generator;
// every trace package generator implements both.
func (g *timedGen) SaveState(e *ckptio.Encoder) { g.g.(ckptio.Saver).SaveState(e) }
func (g *timedGen) LoadState(d *ckptio.Decoder) { g.g.(ckptio.Loader).LoadState(d) }

// setLayerMetrics reports the simulator's per-layer split from the summed
// layer times of `passes` traced passes. Times are per pass; shares are of
// the timed loop, with pipeline counted as Core.Tick minus the generator
// time inside it, so pipeline + coherence + trace + residual = loop.
func (b *bench) setLayerMetrics(lt *layerTimes, passes int) {
	n := float64(passes)
	c := lt.counts.counters
	kinst := float64(c["retired"]) / 1e3
	loop := seconds(lt.loop)
	pipeSelf := lt.cores - lt.gen
	residual := lt.loop - lt.cores - lt.mem
	var msgs uint64
	for k, v := range c {
		if strings.HasPrefix(k, "coh.msg.") {
			msgs += v
		}
	}
	requests := c["coh.msg.GetS"] + c["coh.msg.GetX"] + c["coh.msg.GetX*"]
	b.set("core.setup_ms", ratio(millis(lt.setup), float64(lt.runs)), "ms")
	b.set("core.ns_per_cycle", ratio(float64(lt.loop.Nanoseconds()), float64(lt.counts.cycles)), "ns/cycle")
	b.set("core.loop_s", loop/n, "s")
	b.set("pipeline.tick_s", seconds(lt.cores)/n, "s")
	b.set("pipeline.self_s", seconds(pipeSelf)/n, "s")
	b.set("pipeline.share", ratio(seconds(pipeSelf), loop), "ratio")
	b.set("pipeline.retired_per_dispatched", ratio(float64(c["retired"]), float64(c["dispatched"])), "ratio")
	b.set("pipeline.squashed_per_kinst", ratio(float64(c["squashed_insts"]), kinst), "count/kinst")
	b.set("coherence.tick_s", seconds(lt.mem)/n, "s")
	b.set("coherence.share", ratio(seconds(lt.mem), loop), "ratio")
	b.set("coherence.msgs_per_kinst", ratio(float64(msgs), kinst), "count/kinst")
	b.set("coherence.l1_miss_ratio", ratio(float64(c["l1.misses"]), float64(c["l1.hits"]+c["l1.misses"])), "ratio")
	b.set("coherence.nack_ratio", ratio(float64(c["coh.nacks"]), float64(requests)), "ratio")
	b.set("coherence.defers_per_kinst", ratio(float64(c["coh.defers"]), kinst), "count/kinst")
	b.set("mesh.flits_per_kinst", ratio(float64(lt.counts.flits), kinst), "count/kinst")
	b.set("trace.next_s", seconds(lt.gen)/n, "s")
	b.set("trace.share", ratio(seconds(lt.gen), loop), "ratio")
	b.set("trace.insts_per_retired", ratio(float64(lt.counts.genCalls), float64(c["retired"])), "ratio")
	b.set("loop.residual_s", seconds(residual)/n, "s")
	b.set("loop.residual_share", ratio(seconds(residual), loop), "ratio")
	b.set("checkpoint.capture_ms", ratio(millis(lt.ckptCapture), float64(lt.ckpts)), "ms")
	b.set("checkpoint.restore_ms", ratio(millis(lt.ckptRestore), float64(lt.ckpts)), "ms")
	b.set("checkpoint.bytes", ratio(float64(lt.counts.ckptBytes), float64(lt.ckpts)), "B")
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
