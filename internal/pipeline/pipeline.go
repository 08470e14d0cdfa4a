// Package pipeline models one out-of-order core: an 8-issue machine with a
// 192-entry ROB, load/store queues, a post-retirement write buffer, branch
// and memory-dependence speculation with full squash/rollback, TSO memory-
// consistency enforcement (loads squashed when their line is invalidated or
// evicted before retirement), the defense-scheme load gating of the paper's
// Table 2 (Fence, Delay-On-Miss, STT), and the Pinned Loads machinery:
// the in-order pin governor, the write-buffer deadlock check, the Cache
// Shadow Tables of Early Pinning, and the Cannot-Pin Table.
package pipeline

import (
	"fmt"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/branch"
	"pinnedloads/internal/coherence"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/obs"
	"pinnedloads/internal/pin"
	"pinnedloads/internal/ringq"
	"pinnedloads/internal/stats"
	"pinnedloads/internal/trace"
)

// entry state machine values.
const (
	stWaiting  uint8 = iota // deps outstanding
	stReady                 // in the ready queue
	stExec                  // executing (completion scheduled)
	stAddrDone              // load: address generated, waiting to issue
	stIssued                // load: access outstanding in the memory system
	stDone                  // result produced (loads: data received)
)

// ref names a ROB entry robustly across squashes: seq alone can be reused
// after a squash refetches into the same slot, so gen (a global dispatch
// counter value) disambiguates generations.
type ref struct {
	seq int64
	gen uint64
}

// entry is one ROB slot.
type entry struct {
	inst   isa.Inst
	seq    int64  // ROB sequence number; also encodes program order
	gen    uint64 // dispatch generation, unique per dispatched instruction
	winIdx int64  // correct-path window index, -1 for wrong-path entries
	wrong  bool   // fetched down a mispredicted path

	state    uint8
	depsLeft int8
	wake     []ref // consumers to notify at completion

	// Memory state.
	addrReady bool
	performed bool
	forwarded bool
	pinned    bool
	// invisible marks a load that performed via an InvisiSpec-style
	// stateless access; exposeDone records that its post-VP exposure
	// access completed (required before retirement).
	invisible  bool
	exposeDone bool
	// pinSafe marks a load that is MCV-safe without being pinned (the
	// oldest load under the aggressive TSO implementation).
	pinSafe bool
	line    uint64
	token   int64
	// specToken identifies the load's reversible speculative access (RCP
	// scheme) at the L1; it outlives token so retirement can commit — and
	// a squash reverse — the journaled cache/directory state.
	specToken int64
	// archAddr preserves a load's architectural address while inst.Addr
	// holds the effective (possibly transient) one; see effectiveAddr.
	archAddr uint64

	// Control state.
	resolved bool
	// willMispredict is the effective prediction outcome for a branch:
	// the workload annotation by default, or the live predictor's miss
	// when Config.RealPredictor is set.
	willMispredict bool

	// VP / STT state.
	vpReached bool
	yroot     int64 // youngest load ancestor's seq, -1 if none
	lqTag     uint32

	// lockIssued marks a Lock whose read-modify-write is in flight.
	lockIssued bool
}

func (e *entry) isLoad() bool  { return e.inst.Op == isa.Load }
func (e *entry) isStore() bool { return e.inst.Op == isa.Store }
func (e *entry) isMem() bool   { return e.inst.Op.IsMem() }

// BarrierSync coordinates isa.Barrier instructions across cores: a barrier
// retires only once every core has reached the same barrier index.
type BarrierSync struct {
	cores   int
	reached []int64
}

// NewBarrierSync returns a synchronizer for n cores.
func NewBarrierSync(n int) *BarrierSync {
	return &BarrierSync{cores: n, reached: make([]int64, n)}
}

// arrive records that core has reached its k-th barrier and reports whether
// all cores have reached barrier k.
func (b *BarrierSync) arrive(core int, k int64) bool {
	if b.reached[core] < k {
		b.reached[core] = k
	}
	for _, r := range b.reached {
		if r < k {
			return false
		}
	}
	return true
}

// Core is one simulated out-of-order core.
type Core struct {
	id     int
	cfg    *arch.Config
	policy defense.Policy
	l1     *coherence.L1
	gen    trace.Generator
	bar    *BarrierSync
	count  *stats.Counters
	cnt    coreCounters // pre-bound handles for cycle-path counters

	// rec receives structured trace events; tracing caches rec.Enabled()
	// so disabled runs pay only a branch on a local bool per event site.
	rec     obs.Recorder
	tracing bool

	now int64

	// ROB ring. entries[seq % len] is valid for head <= seq < tail.
	entries []entry
	head    int64
	tail    int64
	// states mirrors entries[i].state in a dense parallel array so the
	// per-cycle LQ scans (issueLoads, exposeLoads) read one byte per
	// entry instead of pulling each ~200-byte entry's cache line in just
	// to reject it. All state transitions go through setState.
	states []uint8

	// Occupancy.
	loadsInROB  int
	storesInROB int
	fences      []int64 // seqs of unretired Fence/Lock/Barrier ops
	loadSeqs    []int64 // seqs of unretired Loads (program order)
	storeSeqs   []int64 // seqs of unretired Stores (program order)

	// Frontend.
	predictor  *branch.TAGE // nil unless Config.RealPredictor
	window     []isa.Inst
	windowBase int64 // stream index of window[0]
	fetchPtr   int64 // next correct-path stream index to dispatch
	wrongMode  bool
	stallUntil int64
	halted     bool
	haltCycle  int64

	// Execution.
	readyQ   []ref
	calendar [64][]ref // completion calendar, indexed by cycle%64
	genNext  uint64    // dispatch generation counter

	// Retirement counters.
	retired     int64
	barriersHit int64

	// Write buffer (retired stores, FIFO of byte addresses).
	wb ringq.Q[uint64]

	// Memory tokens: load issue token -> seq.
	tokenSeq  map[int64]int64
	nextToken int64

	// Performed, yet-to-retire loads (the LQ contents the coherence
	// layer snoops), as a list of seqs.
	lqPerformed []int64

	// Pinned Loads state.
	pinnedRef     map[uint64]int // line -> pinned-load refcount
	pinFrontier   int64          // next seq to consider for pinning
	l1CST         *pin.CST
	dirCST        *pin.CST
	cpt           *pin.CPT
	lqTagNext     uint64          // monotonic LQ ID source
	pendingUnpins ringq.Q[uint64] // queued L1-tag Pinned-bit clears (Section 6.1.2)
	lqTagMask     uint32
	tagToSeq      map[uint32]int64
	wrapStall     bool // LQ ID wrapped: stop pinning until pinned drain
	// pinsPerL1Set / pinsPerDirSet count distinct pinned lines per L1 set
	// and per directory (slice, set), indexed by l1Key/dirKey and grown on
	// demand. Maintained incrementally at first-pin/last-unpin, they make
	// the per-admission room checks O(1) instead of an O(pinned-lines)
	// sweep of pinnedRef.
	pinsPerL1Set  []int32
	pinsPerDirSet []int32

	// VP frontier: all entries with seq < vpFrontier satisfy the active
	// condition mask's prefix requirements. pinVPFrontier is the same
	// with the MCV condition excluded (pin eligibility), and
	// pinPendingSeq is the Late Pinning load allowed to issue this cycle.
	vpFrontier    int64
	pinVPFrontier int64
	pinPendingSeq int64
	oldestLoadSeq int64 // cached seq of the oldest unretired load, -1 unknown

	// doneCycle is set when the core first reaches its retirement target.
	target    int64
	doneCycle int64

	// lastRetiredWin checks retirement continuity: every correct-path
	// instruction must retire exactly once, in stream order.
	lastRetiredWin int64
}

// NewCore builds a core attached to an L1 and a workload generator.
func NewCore(id int, cfg *arch.Config, policy defense.Policy, l1 *coherence.L1,
	gen trace.Generator, bar *BarrierSync, count *stats.Counters) *Core {
	c := &Core{
		id:             id,
		cfg:            cfg,
		policy:         policy,
		l1:             l1,
		gen:            gen,
		bar:            bar,
		count:          count,
		cnt:            bindCoreCounters(count),
		rec:            obs.Nop,
		entries:        make([]entry, cfg.ROBEntries),
		states:         make([]uint8, cfg.ROBEntries),
		tokenSeq:       make(map[int64]int64),
		pinnedRef:      make(map[uint64]int),
		tagToSeq:       make(map[uint32]int64),
		lqTagMask:      uint32(1)<<uint(cfg.LQIDTagBits) - 1,
		doneCycle:      -1,
		haltCycle:      -1,
		pinPendingSeq:  -1,
		oldestLoadSeq:  -1,
		lastRetiredWin: -1,
	}
	if policy.Variant == defense.EP && !cfg.InfiniteCST {
		c.l1CST = pin.NewCST(cfg.L1CSTEntries, cfg.L1CSTRecords)
		c.dirCST = pin.NewCST(cfg.DirCSTEntries, cfg.DirCSTRecords)
	}
	if cfg.RealPredictor {
		c.predictor = branch.NewTAGE(12, 10)
	}
	if policy.Pinning() {
		if cfg.CPTReserve {
			c.cpt = pin.NewReservingCPT(cfg.CPTEntries)
		} else {
			c.cpt = pin.NewCPT(cfg.CPTEntries)
		}
	}
	l1.SetHooks(c)
	return c
}

// at returns the ROB entry for seq (which must satisfy head <= seq < tail).
func (c *Core) at(seq int64) *entry {
	return &c.entries[seq%int64(len(c.entries))]
}

// setState transitions e's state machine, keeping the dense states array
// (see the Core field) in sync.
func (c *Core) setState(e *entry, st uint8) {
	e.state = st
	c.states[e.seq%int64(len(c.entries))] = st
}

// stateOf reads seq's state from the dense array (for scan loops that
// reject most entries without touching the ROB ring).
func (c *Core) stateOf(seq int64) uint8 {
	return c.states[seq%int64(len(c.entries))]
}

// valid reports whether seq names a live ROB entry.
func (c *Core) valid(seq int64) bool { return seq >= c.head && seq < c.tail }

// SetRecorder attaches an event recorder to the core (and its L1). Call it
// before the first Tick; the enabled state is cached for the whole run.
func (c *Core) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop
	}
	c.rec = r
	c.tracing = r.Enabled()
	c.l1.SetRecorder(r)
}

// VPFrontier returns the core's Visibility Point frontier: every ROB entry
// with seq below it has met the active condition mask's prefix
// requirements (for tests and invariant checks).
func (c *Core) VPFrontier() int64 { return c.vpFrontier }

// Retired returns the number of retired instructions.
func (c *Core) Retired() int64 { return c.retired }

// SetTarget arms completion detection at the given retired-instruction
// count; DoneCycle reports when it was reached. Re-arming the same target
// is a no-op, so a restored core keeps its recorded completion cycle when
// the run re-enters the phase it was checkpointed in.
func (c *Core) SetTarget(n int64) {
	if c.target == n {
		return
	}
	c.target = n
	c.doneCycle = -1
}

// DoneCycle returns the cycle the retirement target was reached, or -1.
func (c *Core) DoneCycle() int64 { return c.doneCycle }

// Halted reports whether the workload ended and the pipeline drained.
func (c *Core) Halted() bool { return c.halted && c.head == c.tail }

// HaltCycle returns the cycle the core halted (workload ended and pipeline
// drained), or -1 if it has not. The security oracle compares per-core
// halt cycles between runs: a shift is a timing leak.
func (c *Core) HaltCycle() int64 { return c.haltCycle }

// CPT returns the core's Cannot-Pin Table (nil without pinning).
func (c *Core) CPT() *pin.CPT { return c.cpt }

// CSTs returns the Early Pinning shadow tables (nil otherwise).
func (c *Core) CSTs() (l1, dir *pin.CST) { return c.l1CST, c.dirCST }

// PinnedLineCount returns the number of distinct lines the core currently
// has pinned (for tests and invariant checks).
func (c *Core) PinnedLineCount() int { return len(c.pinnedRef) }

// MaxPinnedPerDirSet returns the largest number of this core's pinned lines
// mapping to one directory/LLC (slice, set); Early Pinning must keep it at
// or below Wd (paper Section 5.1.4).
func (c *Core) MaxPinnedPerDirSet() int {
	counts := map[[2]int]int{}
	max := 0
	for l := range c.pinnedRef {
		k := [2]int{c.cfg.LLCSlice(l), c.cfg.LLCSet(l)}
		counts[k]++
		if counts[k] > max {
			max = counts[k]
		}
	}
	return max
}

// MaxPinnedPerL1Set returns the largest number of pinned lines in one L1
// set; it can never exceed the L1 associativity.
func (c *Core) MaxPinnedPerL1Set() int {
	counts := map[int]int{}
	max := 0
	for l := range c.pinnedRef {
		counts[c.cfg.L1Set(l)]++
		if counts[c.cfg.L1Set(l)] > max {
			max = counts[c.cfg.L1Set(l)]
		}
	}
	return max
}

// Tick advances the core by one cycle. The memory system must have been
// ticked for the same cycle first.
func (c *Core) Tick(now int64) {
	c.now = now
	c.complete()
	c.drainUnpins()
	c.advanceVP()
	c.pinGovernor()
	c.validateSpecLoads()
	c.issueLoads()
	c.exposeLoads()
	c.execute()
	c.retire()
	c.drainWriteBuffer()
	c.dispatch()
	if c.cpt != nil {
		c.cpt.Sample()
	}
	if c.target > 0 && c.doneCycle < 0 && c.retired >= c.target {
		c.doneCycle = now
	}
	if c.haltCycle < 0 && c.halted && c.head == c.tail {
		c.haltCycle = now
	}
}

// fail panics with core context; used for invariant violations.
func (c *Core) fail(format string, args ...any) {
	panic(fmt.Sprintf("core %d @%d: %s", c.id, c.now, fmt.Sprintf(format, args...)))
}
