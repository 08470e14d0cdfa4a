package core

import (
	"fmt"
	"hash/fnv"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/speckey"
)

// Fingerprint identifies the machine shape a snapshot belongs to: an FNV-1a
// hash of the canonical configuration plus the defense policy. A snapshot
// only restores into a system with the same fingerprint; everything the
// payload does not carry (geometry, latencies, policy wiring) must come
// from an identical configuration.
func (s *System) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(speckey.ConfigCanonical(&s.cfg)))
	h.Write([]byte{0})
	h.Write([]byte(s.policy.String()))
	return h.Sum64()
}

// Snapshot serializes the complete simulation state at the current cycle
// boundary: counters, the whole memory hierarchy (caches, directories,
// in-flight messages), the barrier synchronizer, and every core's pipeline
// and workload-generator position. It must be called between cycles — Run
// takes snapshots only at safe points; callers using Snapshot directly must
// not call it from inside a Tick.
func (s *System) Snapshot() ([]byte, error) {
	e := ckptio.NewEncoder()
	e.I64(s.cycle)
	e.I64(s.warmupDone)
	e.I64(s.warmupTarget)
	s.count.SaveState(e)
	s.mem.SaveState(e)
	s.cores[0].Barrier().SaveState(e)
	for _, c := range s.cores {
		if err := c.SaveState(e); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// Restore overwrites the system's state with a payload produced by Snapshot
// on an identically configured system (same arch.Config, policy, workload
// and seed — enforce with Fingerprint). The system continues from the
// snapshot cycle: a subsequent Run skips any already-completed warmup phase
// and produces results byte-identical to an uninterrupted run.
func (s *System) Restore(payload []byte) error {
	d := ckptio.NewDecoder(payload)
	s.cycle = d.I64()
	s.warmupDone = d.I64()
	s.warmupTarget = d.I64()
	s.count.LoadState(d)
	s.mem.LoadState(d)
	s.cores[0].Barrier().LoadState(d)
	for _, c := range s.cores {
		c.LoadState(d)
		if err := d.Err(); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	s.resumed = true
	s.lastCkpt = s.cycle
	return nil
}

// SetCheckpointHook arranges for fn to run at a safe point at least every
// `every` cycles during Run (the exact spacing is quantized to the cycle
// loop's poll mask, so an interval of 0 — disabled — keeps the hot loop
// allocation-free and branch-identical). fn typically snapshots the system
// and persists the bytes; an error aborts the run.
func (s *System) SetCheckpointHook(every int64, fn func() error) {
	if every <= 0 || fn == nil {
		s.ckptEvery = 0
		s.ckptFn = nil
		return
	}
	s.ckptEvery = every
	s.ckptFn = fn
	s.lastCkpt = s.cycle
}

// Resumed reports whether this system's state came from Restore.
func (s *System) Resumed() bool { return s.resumed }
