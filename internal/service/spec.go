// Package service turns the simulator into a long-lived networked
// service: a bounded job queue feeding a worker pool, a content-addressed
// result cache (speckey job IDs over the simcache backends), and an HTTP
// API with explicit backpressure and graceful drain. cmd/plserved is the
// daemon around it and service/client the typed SDK.
package service

import (
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// JobSpec is the wire description of one simulation job. The zero values
// of the optional fields mean: scheme "unsafe", variant "comp", the
// variant's natural VP condition set, seed 1, the library's default
// warmup/measure instruction counts, no event tracing, and the paper
// machine configuration at the benchmark's core count.
type JobSpec struct {
	// Benchmark names a registered proxy (e.g. "gcc_r"); required.
	Benchmark string `json:"benchmark"`
	// Scheme and Variant are the paper's names, case-insensitive
	// ("fence", "EP", ...).
	Scheme  string `json:"scheme,omitempty"`
	Variant string `json:"variant,omitempty"`
	// Consistency selects the memory consistency model, "TSO" (default)
	// or "RC", case-insensitive.
	Consistency string `json:"consistency,omitempty"`
	// Conds overrides the VP condition mask ("ctrl", "alias",
	// "exception", "mcv"); empty means the variant's natural set.
	Conds []string `json:"conds,omitempty"`
	Seed  uint64   `json:"seed,omitempty"`
	// Warmup and Measure are per-core instruction counts.
	Warmup  int64 `json:"warmup,omitempty"`
	Measure int64 `json:"measure,omitempty"`
	// TraceBuffer, when positive, records the structured event stream
	// (result gains Events; GET /v1/jobs/{id}/trace serves it as a Chrome
	// trace).
	TraceBuffer int `json:"trace_buffer,omitempty"`
	// Config overrides the machine configuration.
	Config *arch.Config `json:"config,omitempty"`
}

// Normalize validates the spec and rewrites it into canonical form:
// names in their paper casing, every defaulted field made explicit
// (including the effective machine configuration), and the VP condition
// mask fully resolved. Two specs describing the same simulation normalize
// to identical values, which is what makes Key content-addressed. The
// defaults are simrun.Run's, the ones every other consumer applies.
func (s *JobSpec) Normalize() error {
	if s.Benchmark == "" {
		return fmt.Errorf("service: job spec needs a benchmark")
	}
	w, err := s.workload()
	if err != nil {
		return err
	}
	run, err := s.run()
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	run.Cores = w.Cores()
	run.Normalize()
	pol := run.Policy
	s.Scheme = pol.Scheme.String()
	s.Variant = pol.Variant.String()
	s.Consistency = pol.Consistency.String()
	s.Conds = pol.VPConds().Names()
	s.Seed, s.Warmup, s.Measure, s.Config = run.Seed, run.Warmup, run.Measure, run.Config
	switch {
	case s.Warmup < 0:
		return fmt.Errorf("service: warmup must be >= 0, got %d", s.Warmup)
	case s.Measure < 0:
		return fmt.Errorf("service: measure must be > 0, got %d", s.Measure)
	case s.TraceBuffer < 0:
		return fmt.Errorf("service: trace_buffer must be >= 0, got %d", s.TraceBuffer)
	}
	if err := s.Config.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// Key returns the job's content-addressed ID. The spec must have been
// normalized.
func (s JobSpec) Key() string {
	run, err := s.run()
	if err != nil {
		// Normalize validated the names; reaching this is a caller bug.
		panic(fmt.Sprintf("service: Key on unnormalized spec: %v", err))
	}
	return run.Key()
}

// run parses the spec into the simulator's run description. Empty names
// mean the defaults: scheme Unsafe, variant Comp, TSO. Cores is left zero:
// a normalized spec's Config already covers the workload's core count.
func (s JobSpec) run() (simrun.Run, error) {
	var pol defense.Policy
	var err error
	if s.Scheme != "" {
		if pol.Scheme, err = defense.ParseScheme(s.Scheme); err != nil {
			return simrun.Run{}, err
		}
	}
	if s.Variant != "" {
		if pol.Variant, err = defense.ParseVariant(s.Variant); err != nil {
			return simrun.Run{}, err
		}
	}
	if s.Consistency != "" {
		if pol.Consistency, err = defense.ParseConsistency(s.Consistency); err != nil {
			return simrun.Run{}, err
		}
	}
	for _, name := range s.Conds {
		c, err := defense.ParseCond(name)
		if err != nil {
			return simrun.Run{}, err
		}
		pol.Conds |= c
	}
	return simrun.Run{
		Benchmark: s.Benchmark,
		Policy:    pol,
		Config:    s.Config,
		Params: simrun.Params{Seed: s.Seed, Warmup: s.Warmup, Measure: s.Measure,
			TraceBuffer: s.TraceBuffer},
	}, nil
}

// workload resolves the spec's benchmark proxy.
func (s JobSpec) workload() (trace.Source, error) {
	w := trace.ByName(s.Benchmark)
	if w == nil {
		return nil, fmt.Errorf("service: unknown benchmark %q", s.Benchmark)
	}
	return w, nil
}
