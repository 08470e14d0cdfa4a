// Package simrun executes one simulation and snapshots everything its
// consumers need — CPI, event counters, per-core Pinned Loads hardware
// statistics and (optionally) the traced event stream — into a plain,
// JSON-serializable Output. It is the single execution path shared by the
// public pinnedloads.Run API, the experiment runner's memoized worker pool
// and the simulation service's job workers, so a result computed by any of
// them is interchangeable with the others and nothing simulator-internal
// (no *core.System, no pointer into one) escapes to the caller. Run is the
// matching single description: it applies every default and derives the
// content-addressed key all three consumers use.
package simrun

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/checkpoint"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/speckey"
	"pinnedloads/internal/trace"
)

// DefaultWarmup and DefaultMeasure are the per-core instruction counts
// used when a spec leaves them zero (the public RunSpec defaults).
const (
	DefaultWarmup  = 20_000
	DefaultMeasure = 100_000
)

// Params sizes one simulation.
type Params struct {
	Seed    uint64
	Warmup  int64
	Measure int64
	// TraceBuffer, when positive, records the structured event stream into
	// a ring of that capacity; Output.Events holds it.
	TraceBuffer int
	// MetricsInterval, when positive, captures a counter snapshot every
	// that many cycles, plus one at the end of the run, into
	// Output.Snapshots.
	MetricsInterval int64

	// CheckpointEvery, when positive, snapshots the full simulator state
	// roughly every that many cycles (at the cycle-loop's existing poll
	// boundary, so zero leaves the hot loop untouched) and hands the
	// encoded checkpoint to CheckpointSink. A sink error aborts the run.
	CheckpointEvery int64
	CheckpointSink  func([]byte) error
	// CheckpointIdentity is a free-form label stored in checkpoint
	// metadata (job ID, spec key); it is informational only.
	CheckpointIdentity string

	// Resume, when non-empty, restores the simulator from an encoded
	// checkpoint before running. The checkpoint's configuration/policy
	// fingerprint must match or Execute fails with the typed mismatch
	// error. Resuming changes only where execution starts, never the
	// Output: a resumed run is byte-identical to a cold one.
	Resume []byte
	// OnResume, when set alongside Resume, observes the restored
	// checkpoint's metadata (e.g. to report how many cycles were skipped).
	OnResume func(checkpoint.Meta)
}

// Run describes one simulation: the workload, by name and natural core
// count so that a workload outside the benchmark registry is described
// too, the defense policy, the machine and the Params. Every consumer
// describes its runs this way — the public API, the experiment runner
// and the simulation service — so Key names a result the same way
// everywhere and Execute runs it the same way everywhere.
type Run struct {
	Benchmark string
	Cores     int
	Policy    defense.Policy
	Config    *arch.Config
	Params
}

// Normalize makes the run's defaults explicit: seed 1, DefaultWarmup and
// DefaultMeasure for zero counts, and the paper machine at the workload's
// core count for a nil Config. A Config with fewer cores than the
// workload is replaced by a copy raised to the workload's count, as
// core.New raises it. The Policy is left as given; Key resolves its VP
// mask.
func (r *Run) Normalize() {
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Warmup == 0 {
		r.Warmup = DefaultWarmup
	}
	if r.Measure == 0 {
		r.Measure = DefaultMeasure
	}
	if r.Config == nil {
		c := arch.PaperConfig(max(r.Cores, 1))
		r.Config = &c
	} else if r.Config.Cores < r.Cores {
		c := *r.Config
		c.Cores = r.Cores
		r.Config = &c
	}
}

// Key normalizes the run and returns its content-addressed identity: the
// speckey digest over the benchmark name, the scheme, the variant, the
// resolved VP mask, the consistency model, the effective machine, the
// seed, the instruction counts and the trace-buffer size. The remaining
// Params change how a run is observed or where it starts, never its
// outcome, and are left out.
func (r *Run) Key() string {
	r.Normalize()
	return speckey.Spec{
		Benchmark:   r.Benchmark,
		Scheme:      r.Policy.Scheme.String(),
		Variant:     r.Policy.Variant.String(),
		Conds:       uint8(r.Policy.VPConds()),
		Consistency: r.Policy.Consistency.String(),
		Seed:        r.Seed,
		Warmup:      r.Warmup,
		Measure:     r.Measure,
		TraceBuffer: r.TraceBuffer,
		Config:      r.Config,
	}.Key()
}

// HW is the per-core Pinned Loads hardware summary of a finished run
// (false-positive rates of the Cache Shadow Tables, occupancy of the
// Cannot-Pin Table). Extracting it here keeps whole systems from being
// retained just for these few numbers.
type HW struct {
	CST   bool    `json:"cst,omitempty"`
	L1FP  float64 `json:"l1_fp,omitempty"`
	DirFP float64 `json:"dir_fp,omitempty"`

	CPT          bool    `json:"cpt,omitempty"`
	CPTMean      float64 `json:"cpt_mean,omitempty"`
	CPTMax       int     `json:"cpt_max,omitempty"`
	CPTSamples   uint64  `json:"cpt_samples,omitempty"`
	CPTInserts   uint64  `json:"cpt_inserts,omitempty"`
	CPTOverflows uint64  `json:"cpt_overflows,omitempty"`
}

// Output is the complete, self-contained result of one simulation.
type Output struct {
	CPI      float64           `json:"cpi"`
	Cycles   int64             `json:"cycles"`
	Insts    int64             `json:"insts"`
	Counters map[string]uint64 `json:"counters"`
	HW       []HW              `json:"hw,omitempty"`
	// Events holds the traced event stream (Params.TraceBuffer > 0);
	// EventsLost counts ring-buffer drops.
	Events     []obs.Event `json:"events,omitempty"`
	EventsLost uint64      `json:"events_lost,omitempty"`
	// Snapshots holds the periodic counter snapshots
	// (Params.MetricsInterval > 0).
	Snapshots []obs.Snapshot `json:"snapshots,omitempty"`
}

// Execute runs one simulation of w under the policy and snapshots the
// result. A nil cfg means the paper configuration at the workload's core
// count. The context is threaded into the cycle loop: cancellation stops
// the simulation mid-run. A panic anywhere inside the simulator is
// recovered into an error so one broken run cannot take down a worker.
func Execute(ctx context.Context, w trace.Source, pol defense.Policy, cfg *arch.Config, p Params) (out *Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("simrun: %s %s: panic: %v", w.Name(), pol, r)
		}
	}()
	c := arch.PaperConfig(w.Cores())
	if cfg != nil {
		c = *cfg
	}
	sys, err := core.New(c, pol, w, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("simrun: %s %s: %w", w.Name(), pol, err)
	}
	var ring *obs.Ring
	if p.TraceBuffer > 0 {
		ring = obs.NewRing(p.TraceBuffer)
		sys.SetRecorder(ring)
	}
	sys.SampleEvery(p.MetricsInterval)
	if len(p.Resume) > 0 {
		meta, err := checkpoint.Restore(p.Resume, sys)
		if err != nil {
			return nil, fmt.Errorf("simrun: %s %s: resume: %w", w.Name(), pol, err)
		}
		if p.OnResume != nil {
			p.OnResume(meta)
		}
	}
	if p.CheckpointEvery > 0 && p.CheckpointSink != nil {
		sys.SetCheckpointHook(p.CheckpointEvery, func() error {
			b, err := checkpoint.Capture(sys, p.CheckpointIdentity)
			if err != nil {
				return err
			}
			return p.CheckpointSink(b)
		})
	}
	res, err := sys.RunContext(ctx, p.Warmup, p.Measure)
	if err != nil {
		return nil, fmt.Errorf("simrun: %s %s: %w", w.Name(), pol, err)
	}
	out = &Output{
		CPI:       res.CPI,
		Cycles:    res.Cycles,
		Insts:     res.Insts,
		Counters:  res.Counters.Snapshot(),
		Snapshots: sys.Snapshots(),
	}
	if ring != nil {
		out.Events = ring.Events()
		out.EventsLost = ring.Dropped()
	}
	for i := 0; i < c.Cores; i++ {
		var hs HW
		if l1, dir := sys.Core(i).CSTs(); l1 != nil {
			hs.CST = true
			hs.L1FP = l1.FalsePositiveRate()
			hs.DirFP = dir.FalsePositiveRate()
		}
		if cpt := sys.Core(i).CPT(); cpt != nil {
			hs.CPT = true
			hs.CPTMean = cpt.Occupancy().Mean()
			hs.CPTMax = cpt.Occupancy().Max()
			hs.CPTSamples = cpt.Occupancy().Samples()
			hs.CPTInserts = cpt.Inserts()
			hs.CPTOverflows = cpt.Overflows()
		}
		out.HW = append(out.HW, hs)
	}
	return out, nil
}

// MarshalCSV renders the result as the canonical two-column CSV artifact:
// a metric,value header, the headline numbers, then every event counter
// in sorted order. The encoding is deterministic — identical outputs
// produce byte-identical CSV — so it doubles as an equality check between
// in-process runs and service-computed results.
func (o *Output) MarshalCSV() []byte {
	var b strings.Builder
	b.WriteString("metric,value\n")
	fmt.Fprintf(&b, "cpi,%s\n", strconv.FormatFloat(o.CPI, 'g', -1, 64))
	fmt.Fprintf(&b, "cycles,%d\n", o.Cycles)
	fmt.Fprintf(&b, "insts,%d\n", o.Insts)
	names := make([]string, 0, len(o.Counters))
	for name := range o.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "counter.%s,%d\n", name, o.Counters[name])
	}
	return []byte(b.String())
}
