// Package core assembles the full simulated machine — out-of-order cores
// (package pipeline), the coherent memory hierarchy (package coherence),
// and a workload (package trace) — and runs it cycle by cycle under a
// defense policy. It is the engine behind the public pinnedloads API.
package core

import (
	"context"
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/pipeline"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// System is one configured simulation: cores, memory hierarchy, workload
// generators and a defense policy.
type System struct {
	cfg    arch.Config
	policy defense.Policy
	mem    *coherence.System
	cores  []*pipeline.Core
	count  stats.Counters
	cycle  int64

	// sampler, when set, captures periodic counter snapshots; see
	// SampleEvery. The nil default costs the cycle loop one branch.
	sampler *obs.Sampler

	// batch buffers traced events between the cores and the recorder the
	// caller attached, so hot-path Record calls are plain appends. Events
	// from all cores share one buffer, preserving global recording order.
	batch *obs.Batch

	// Checkpoint/restore state. warmupDone records the cycle the warmup
	// phase ended (-1 until then) and warmupTarget its instruction target;
	// both travel in snapshots so a restored run can skip a completed
	// warmup. The checkpoint hook fires at safe points inside the cycle
	// loop's existing poll mask, so ckptEvery=0 costs the hot loop nothing.
	warmupDone   int64
	warmupTarget int64
	resumed      bool
	ckptEvery    int64
	lastCkpt     int64
	ckptFn       func() error
}

// progressWindow bounds how long the simulator tolerates zero retirement
// before declaring a deadlock (a correctness backstop, not a mechanism).
const progressWindow = 200_000

// New builds a system running the workload under the policy. The workload's
// natural core count is used unless cfg.Cores overrides it upward.
func New(cfg arch.Config, policy defense.Policy, w trace.Source, seed uint64) (*System, error) {
	if cfg.Cores < w.Cores() {
		cfg.Cores = w.Cores()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, policy: policy, warmupDone: -1}
	s.mem = coherence.NewSystem(&s.cfg, &s.count)
	bar := pipeline.NewBarrierSync(cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		gen := w.Generator(i, seed)
		s.cores = append(s.cores, pipeline.NewCore(i, &s.cfg, policy, s.mem.L1(i), gen, bar, &s.count))
	}
	// Pre-warm the LLC with the workload's resident working set, modeling
	// the warm cache state of a checkpointed simulation interval.
	if warmer, ok := w.(interface{ WarmLines(core int) []uint64 }); ok {
		for i := 0; i < cfg.Cores; i++ {
			s.mem.Prewarm(warmer.WarmLines(i))
		}
	}
	return s, nil
}

// SetRecorder attaches an event recorder to every core (and, through each
// core, its L1). Call it before Run; the enabled state is cached. Enabled
// recorders are fronted by a shared batch buffer that is flushed when each
// run ends, so events reach r in bulk but in unchanged order.
func (s *System) SetRecorder(r obs.Recorder) {
	s.batch = nil
	if r != nil && r.Enabled() {
		s.batch = obs.NewBatch(r, 512)
		r = s.batch
	}
	for _, c := range s.cores {
		c.SetRecorder(r)
	}
}

// flushEvents hands any buffered trace events to the attached recorder.
func (s *System) flushEvents() {
	if s.batch != nil {
		s.batch.Flush()
	}
}

// SampleEvery arranges for a counter snapshot every interval cycles during
// Run (plus a final one when the run ends); interval <= 0 disables
// sampling. Snapshots returns the result.
func (s *System) SampleEvery(interval int64) {
	if interval <= 0 {
		s.sampler = nil
		return
	}
	s.sampler = obs.NewSampler(interval)
}

// Snapshots returns the metrics snapshots captured so far.
func (s *System) Snapshots() []obs.Snapshot {
	if s.sampler == nil {
		return nil
	}
	return s.sampler.Snapshots()
}

// Result summarizes one run's measured interval.
type Result struct {
	// Cycles is the measured interval length; Insts the per-core
	// instruction target; CPI the per-core cycles per instruction.
	Cycles int64
	Insts  int64
	CPI    float64
	// Counters holds every event counter accumulated during the whole
	// run (including warmup).
	Counters *stats.Counters
}

// Run executes warmup instructions per core unmeasured, then measures the
// cycles needed for every core to retire measure further instructions.
func (s *System) Run(warmup, measure int64) (Result, error) {
	return s.RunContext(context.Background(), warmup, measure)
}

// ctxCheckMask spaces the cycle loop's context polls: the deadline is
// checked every ctxCheckMask+1 cycles, keeping the common-path cost of
// cancellation support to one branch on a local counter.
const ctxCheckMask = 4096 - 1

// RunContext is Run with cancellation: when ctx is canceled or its
// deadline passes, the simulation stops mid-run (within a few thousand
// cycles) and returns an error wrapping ctx.Err().
func (s *System) RunContext(ctx context.Context, warmup, measure int64) (Result, error) {
	if measure <= 0 {
		return Result{}, fmt.Errorf("core: measure count must be positive, got %d", measure)
	}
	defer s.flushEvents()
	start := s.warmupDone
	if !(s.resumed && s.warmupDone >= 0 && s.warmupTarget == warmup) {
		var err error
		start, err = s.runUntil(ctx, warmup)
		if err != nil {
			return Result{}, err
		}
		s.warmupDone = start
		s.warmupTarget = warmup
	}
	end, err := s.runUntil(ctx, warmup+measure)
	if err != nil {
		return Result{}, err
	}
	if s.sampler != nil {
		s.sampler.Finish(s.cycle, &s.count)
	}
	cycles := end - start
	return Result{
		Cycles:   cycles,
		Insts:    measure,
		CPI:      float64(cycles) / float64(measure),
		Counters: &s.count,
	}, nil
}

// runUntil advances the system until every core has retired target
// instructions (or halted), returning the cycle the last core got there.
// The context is polled every ctxCheckMask+1 cycles so a canceled or
// timed-out run stops mid-simulation instead of running to completion.
func (s *System) runUntil(ctx context.Context, target int64) (int64, error) {
	if target <= 0 {
		return s.cycle, nil
	}
	for _, c := range s.cores {
		c.SetTarget(target)
	}
	// ctx.Done() is nil for contexts that can never be canceled (such as
	// context.Background()); hoisting it lets those runs skip the poll
	// entirely. The retirement-progress backstop shares the same masked
	// check: progressWindow is vastly larger than the mask, so a deadlock
	// is still caught within one poll interval of the window expiring.
	done := ctx.Done()
	lastProgress := s.cycle
	lastRetired := s.totalRetired()
	for {
		allDone := true
		for _, c := range s.cores {
			if c.DoneCycle() < 0 && !c.Halted() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if s.cycle&ctxCheckMask == 0 {
			if done != nil {
				select {
				case <-done:
					return 0, fmt.Errorf("core: run stopped at cycle %d: %w", s.cycle, ctx.Err())
				default:
				}
			}
			if r := s.totalRetired(); r > lastRetired {
				lastRetired = r
				lastProgress = s.cycle
			} else if s.cycle-lastProgress > progressWindow {
				return 0, fmt.Errorf("core: no retirement progress for %d cycles at cycle %d (policy %s)",
					progressWindow, s.cycle, s.policy)
			}
			if s.ckptEvery > 0 && s.cycle-s.lastCkpt >= s.ckptEvery {
				s.lastCkpt = s.cycle
				if err := s.ckptFn(); err != nil {
					return 0, fmt.Errorf("core: checkpoint at cycle %d: %w", s.cycle, err)
				}
			}
		}
		s.stepCycle()
	}
	// The interval ends when the slowest core reached the target.
	end := s.cycle
	for _, c := range s.cores {
		if d := c.DoneCycle(); d > end {
			end = d
		}
	}
	return end, nil
}

// stepCycle advances the whole machine by one cycle: memory system first,
// then every core, then the optional metrics sampler. This is the cycle
// loop's entire steady-state body, shared by runUntil and the benchmarks.
func (s *System) stepCycle() {
	s.cycle++
	s.mem.Tick(s.cycle)
	for _, c := range s.cores {
		c.Tick(s.cycle)
	}
	if s.sampler != nil {
		s.sampler.MaybeSample(s.cycle, &s.count)
	}
}

func (s *System) totalRetired() int64 {
	var n int64
	for _, c := range s.cores {
		n += c.Retired()
	}
	return n
}

// Counters exposes the accumulated event counters.
func (s *System) Counters() *stats.Counters { return &s.count }

// Core returns core i (for tests and detailed inspection).
func (s *System) Core(i int) *pipeline.Core { return s.cores[i] }

// Mem returns the memory system (for traffic statistics).
func (s *System) Mem() *coherence.System { return s.mem }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() int64 { return s.cycle }
