package experiments

import (
	"context"
	"testing"

	"pinnedloads"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/service"
	"pinnedloads/internal/simrun"
	"pinnedloads/internal/trace"
)

// specRecorder is a RemoteRunner that records the job it is sent and
// answers with an empty result.
type specRecorder struct {
	specs []service.JobSpec
}

func (s *specRecorder) Run(_ context.Context, spec service.JobSpec) (*simrun.Output, error) {
	s.specs = append(s.specs, spec)
	return &simrun.Output{}, nil
}

// TestRunnerKeyAgreement checks that a run has one identity: for every
// Figure 7 request plus an RC run, the Runner's memo key, the key of the
// job it sends to Remote and pinnedloads.SpecKey of the same run agree,
// and the RC run is not keyed like its TSO twin.
func TestRunnerKeyAgreement(t *testing.T) {
	p := QuickParams()
	var reqs []runReq
	for _, b := range suiteBenches("SPEC17") {
		reqs = append(reqs, unsafeReq(b))
		for _, sch := range defense.Schemes() {
			for _, v := range defense.Variants() {
				reqs = append(reqs, runReq{bench: b, pol: defense.Policy{Scheme: sch, Variant: v}})
			}
		}
	}
	tso := runReq{bench: trace.ByName("mcf_r"), pol: defense.Policy{Scheme: defense.Fence, Variant: defense.EP}}
	rc := tso
	rc.pol.Consistency = defense.RC
	reqs = append(reqs, rc)

	keys := map[string]string{}
	for _, q := range reqs {
		r := NewRunner(p)
		rec := &specRecorder{}
		r.Remote = rec
		memo := r.key(q)
		if _, err := r.get(q); err != nil {
			t.Fatal(err)
		}
		if len(rec.specs) != 1 {
			t.Fatalf("%s %s: %d remote jobs, want 1", q.bench.Name(), q.pol, len(rec.specs))
		}
		job := rec.specs[0]
		if err := job.Normalize(); err != nil {
			t.Fatal(err)
		}
		lib, err := pinnedloads.SpecKey(pinnedloads.RunSpec{Benchmark: q.bench.Name(),
			Scheme: q.pol.Scheme, Variant: q.pol.Variant, Conds: q.pol.Conds,
			Consistency: q.pol.Consistency, Config: q.cfg,
			Seed: p.Seed, Warmup: p.Warmup, Measure: p.Measure})
		if err != nil {
			t.Fatal(err)
		}
		if memo != job.Key() || memo != lib {
			t.Fatalf("%s %s: memo key %s, remote job key %s, SpecKey %s",
				q.bench.Name(), q.pol, memo, job.Key(), lib)
		}
		keys[q.bench.Name()+" "+q.pol.String()] = memo
	}
	if keys["mcf_r "+rc.pol.String()] == keys["mcf_r "+tso.pol.String()] {
		t.Fatal("the RC run shares the TSO run's key")
	}
}
