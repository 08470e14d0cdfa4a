package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pinnedloads/internal/simrun"
)

// ckptSpec is a job long enough to cross several checkpoint intervals.
func ckptSpec() JobSpec {
	return JobSpec{Benchmark: "gcc_r", Scheme: "fence", Variant: "ep",
		Warmup: 2_000, Measure: 20_000}
}

// seedCheckpoint simulates the job standalone up to its first persisted
// checkpoint and writes that blob where a server with dir would look for
// it — the state a SIGKILLed backend leaves behind.
func seedCheckpoint(t *testing.T, dir string, spec JobSpec, every int64) string {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	id := spec.Key()
	w, err := spec.workload()
	if err != nil {
		t.Fatal(err)
	}
	run, err := spec.run()
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	run.CheckpointIdentity = id
	run.CheckpointEvery = every
	run.CheckpointSink = func(b []byte) error {
		if blob == nil {
			blob = append([]byte(nil), b...)
		}
		return nil
	}
	_, err = simrun.Execute(context.Background(), w, run.Policy, run.Config, run.Params)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("job finished without crossing a checkpoint interval")
	}
	path := filepath.Join(dir, id+".ckpt")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJobResumesFromCheckpoint is the crash-recovery path: a server whose
// checkpoint directory already holds a job's checkpoint (left by a killed
// predecessor) must resume it — same result as a cold run, resumed-cycles
// metrics accounted, and the checkpoint deleted once the job succeeds.
func TestJobResumesFromCheckpoint(t *testing.T) {
	spec := ckptSpec()
	dir := t.TempDir()
	path := seedCheckpoint(t, dir, spec, 10_000)

	// Reference: what the job computes with no checkpoint anywhere.
	cold := New(Options{Workers: 1})
	cold.Start()
	defer cold.Close()
	coldSpec := spec
	st, err := cold.Submit(&coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 1, CheckpointDir: dir, CheckpointEvery: 10_000})
	s.Start()
	defer s.Close()
	resSpec := spec
	st, err = s.Submit(&resSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("resumed job state %s: %s", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("resumed result differs from cold run:\ngot  %+v\nwant %+v", got.Result, want.Result)
	}

	m := metricsMap(t, s)
	if m["svc.resumed_jobs"] != 1 {
		t.Errorf("svc.resumed_jobs = %d, want 1", m["svc.resumed_jobs"])
	}
	if rc := m["svc.resumed_cycles"]; rc == 0 || int64(rc) >= want.Result.Cycles+int64(spec.Warmup)*4 {
		t.Errorf("svc.resumed_cycles = %d, want mid-run (0 < cycles < total)", rc)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint %s not deleted after success", path)
	}
}

// TestInvalidCheckpointRunsCold: garbage where the checkpoint should be
// must be discarded (and counted), and the job still completes.
func TestInvalidCheckpointRunsCold(t *testing.T) {
	spec := ckptSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, spec.Key()+".ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 1, CheckpointDir: dir, CheckpointEvery: 10_000})
	s.Start()
	defer s.Close()
	st, err := s.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("job state %s: %s", got.State, got.Error)
	}
	m := metricsMap(t, s)
	if m["svc.checkpoint_invalid"] != 1 {
		t.Errorf("svc.checkpoint_invalid = %d, want 1", m["svc.checkpoint_invalid"])
	}
	if m["svc.resumed_jobs"] != 0 {
		t.Errorf("svc.resumed_jobs = %d, want 0", m["svc.resumed_jobs"])
	}
}

// metricsMap parses the /metrics wire format into a map.
func metricsMap(t *testing.T, s *Server) map[string]uint64 {
	t.Helper()
	m := make(map[string]uint64)
	for _, line := range strings.Split(s.Metrics(), "\n") {
		if name, val, ok := strings.Cut(line, "="); ok {
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bad metrics line %q", line)
			}
			m[name] = v
		}
	}
	return m
}
