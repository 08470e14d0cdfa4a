package pipeline

import (
	"fmt"
	"sort"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/isa"
)

// Decode bounds: every list here is bounded by ROB occupancy or the
// frontend window in a live core; the caps are far above either.
const (
	maxRefs    = 1 << 20
	maxSeqList = 1 << 20
	maxWindow  = 1 << 16
	maxMapEnts = 1 << 20
)

func saveRefs(e *ckptio.Encoder, refs []ref) {
	e.U64(uint64(len(refs)))
	for _, r := range refs {
		e.I64(r.seq)
		e.U64(r.gen)
	}
}

func loadRefs(d *ckptio.Decoder, refs []ref) []ref {
	n := d.Count(maxRefs)
	refs = refs[:0]
	for i := 0; i < n; i++ {
		refs = append(refs, ref{seq: d.I64(), gen: d.U64()})
	}
	return refs
}

func saveSeqs(e *ckptio.Encoder, seqs []int64) {
	e.U64(uint64(len(seqs)))
	for _, s := range seqs {
		e.I64(s)
	}
}

func loadSeqs(d *ckptio.Decoder, seqs []int64) []int64 {
	n := d.Count(maxSeqList)
	seqs = seqs[:0]
	for i := 0; i < n; i++ {
		seqs = append(seqs, d.I64())
	}
	return seqs
}

func (en *entry) save(e *ckptio.Encoder) {
	e.Inst(&en.inst)
	e.I64(en.seq)
	e.U64(en.gen)
	e.I64(en.winIdx)
	e.Bool(en.wrong)
	e.U8(en.state)
	e.I64(int64(en.depsLeft))
	saveRefs(e, en.wake)
	e.Bool(en.addrReady)
	e.Bool(en.performed)
	e.Bool(en.forwarded)
	e.Bool(en.pinned)
	e.Bool(en.invisible)
	e.Bool(en.exposeDone)
	e.Bool(en.pinSafe)
	e.U64(en.line)
	e.I64(en.token)
	e.I64(en.specToken)
	e.U64(en.archAddr)
	e.Bool(en.resolved)
	e.Bool(en.willMispredict)
	e.Bool(en.vpReached)
	e.I64(en.yroot)
	e.U32(en.lqTag)
	e.Bool(en.lockIssued)
}

func (en *entry) load(d *ckptio.Decoder) {
	d.Inst(&en.inst)
	en.seq = d.I64()
	en.gen = d.U64()
	en.winIdx = d.I64()
	en.wrong = d.Bool()
	st := d.U8()
	if st > stDone {
		d.Failf("invalid ROB entry state %d", st)
		return
	}
	en.state = st
	en.depsLeft = int8(d.I64())
	en.wake = loadRefs(d, en.wake)
	en.addrReady = d.Bool()
	en.performed = d.Bool()
	en.forwarded = d.Bool()
	en.pinned = d.Bool()
	en.invisible = d.Bool()
	en.exposeDone = d.Bool()
	en.pinSafe = d.Bool()
	en.line = d.U64()
	en.token = d.I64()
	en.specToken = d.I64()
	en.archAddr = d.U64()
	en.resolved = d.Bool()
	en.willMispredict = d.Bool()
	en.vpReached = d.Bool()
	en.yroot = d.I64()
	en.lqTag = d.U32()
	en.lockIssued = d.Bool()
}

// Barrier returns the cross-core barrier synchronizer (shared by all cores
// of a system; checkpointing serializes it once).
func (c *Core) Barrier() *BarrierSync { return c.bar }

// SaveState serializes the barrier synchronizer.
func (b *BarrierSync) SaveState(e *ckptio.Encoder) {
	e.Int(len(b.reached))
	for _, r := range b.reached {
		e.I64(r)
	}
}

// LoadState restores a barrier synchronizer for the same core count.
func (b *BarrierSync) LoadState(d *ckptio.Decoder) {
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(b.reached) {
		d.Failf("barrier sync has %d cores, checkpoint has %d", len(b.reached), n)
		return
	}
	for i := range b.reached {
		b.reached[i] = d.I64()
	}
}

// SaveState serializes the core's complete mutable state: the full ROB ring
// (including slots outside head..tail, so stale refs in the ready queue and
// completion calendar behave identically after restore), the frontend,
// execution queues, write buffer, pin bookkeeping, and the workload
// generator's position. It fails if the workload generator does not support
// checkpointing.
func (c *Core) SaveState(e *ckptio.Encoder) error {
	gen, ok := c.gen.(ckptio.Saver)
	if !ok {
		return fmt.Errorf("pipeline: workload generator %T is not checkpointable", c.gen)
	}

	e.I64(c.now)
	e.Int(len(c.entries))
	for i := range c.entries {
		c.entries[i].save(e)
	}
	e.I64(c.head)
	e.I64(c.tail)
	e.Int(c.loadsInROB)
	e.Int(c.storesInROB)
	saveSeqs(e, c.fences)
	saveSeqs(e, c.loadSeqs)
	saveSeqs(e, c.storeSeqs)

	e.Bool(c.predictor != nil)
	if c.predictor != nil {
		c.predictor.SaveState(e)
	}
	e.U64(uint64(len(c.window)))
	for i := range c.window {
		e.Inst(&c.window[i])
	}
	e.I64(c.windowBase)
	e.I64(c.fetchPtr)
	e.Bool(c.wrongMode)
	e.I64(c.stallUntil)
	e.Bool(c.halted)
	e.I64(c.haltCycle)

	saveRefs(e, c.readyQ)
	for i := range c.calendar {
		saveRefs(e, c.calendar[i])
	}
	e.U64(c.genNext)
	e.I64(c.retired)
	e.I64(c.barriersHit)

	e.U64(uint64(c.wb.Len()))
	for i := 0; i < c.wb.Len(); i++ {
		e.U64(c.wb.At(i))
	}

	tokens := make([]int64, 0, len(c.tokenSeq))
	for t := range c.tokenSeq {
		tokens = append(tokens, t)
	}
	sort.Slice(tokens, func(i, j int) bool { return tokens[i] < tokens[j] })
	e.U64(uint64(len(tokens)))
	for _, t := range tokens {
		e.I64(t)
		e.I64(c.tokenSeq[t])
	}
	e.I64(c.nextToken)
	saveSeqs(e, c.lqPerformed)

	lines := make([]uint64, 0, len(c.pinnedRef))
	for l := range c.pinnedRef {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.U64(uint64(len(lines)))
	for _, l := range lines {
		e.U64(l)
		e.Int(c.pinnedRef[l])
	}
	e.I64(c.pinFrontier)

	e.Bool(c.l1CST != nil)
	if c.l1CST != nil {
		c.l1CST.SaveState(e)
		c.dirCST.SaveState(e)
	}
	e.Bool(c.cpt != nil)
	if c.cpt != nil {
		c.cpt.SaveState(e)
	}

	e.U64(c.lqTagNext)
	e.U64(uint64(c.pendingUnpins.Len()))
	for i := 0; i < c.pendingUnpins.Len(); i++ {
		e.U64(c.pendingUnpins.At(i))
	}
	tags := make([]uint32, 0, len(c.tagToSeq))
	for t := range c.tagToSeq {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	e.U64(uint64(len(tags)))
	for _, t := range tags {
		e.U32(t)
		e.I64(c.tagToSeq[t])
	}
	e.Bool(c.wrapStall)

	e.U64(uint64(len(c.pinsPerL1Set)))
	for _, v := range c.pinsPerL1Set {
		e.I32(v)
	}
	e.U64(uint64(len(c.pinsPerDirSet)))
	for _, v := range c.pinsPerDirSet {
		e.I32(v)
	}

	e.I64(c.vpFrontier)
	e.I64(c.pinVPFrontier)
	e.I64(c.pinPendingSeq)
	e.I64(c.oldestLoadSeq)
	e.I64(c.target)
	e.I64(c.doneCycle)
	e.I64(c.lastRetiredWin)

	gen.SaveState(e)
	return nil
}

// LoadState restores a core built from the same configuration, policy and
// workload. The dense state mirror is rebuilt from the restored entries.
func (c *Core) LoadState(d *ckptio.Decoder) {
	gen, ok := c.gen.(ckptio.Loader)
	if !ok {
		d.Failf("workload generator %T is not checkpointable", c.gen)
		return
	}

	c.now = d.I64()
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n != len(c.entries) {
		d.Failf("ROB has %d entries, checkpoint has %d", len(c.entries), n)
		return
	}
	for i := range c.entries {
		c.entries[i].load(d)
		if d.Err() != nil {
			return
		}
		c.states[i] = c.entries[i].state
	}
	c.head = d.I64()
	c.tail = d.I64()
	c.loadsInROB = d.Int()
	c.storesInROB = d.Int()
	c.fences = loadSeqs(d, c.fences)
	c.loadSeqs = loadSeqs(d, c.loadSeqs)
	c.storeSeqs = loadSeqs(d, c.storeSeqs)

	hasPred := d.Bool()
	if d.Err() != nil {
		return
	}
	if hasPred != (c.predictor != nil) {
		d.Failf("predictor presence mismatch (config has %v, checkpoint has %v)",
			c.predictor != nil, hasPred)
		return
	}
	if hasPred {
		c.predictor.LoadState(d)
	}
	nw := d.Count(maxWindow)
	c.window = c.window[:0]
	for i := 0; i < nw; i++ {
		var in isa.Inst
		d.Inst(&in)
		c.window = append(c.window, in)
	}
	c.windowBase = d.I64()
	c.fetchPtr = d.I64()
	c.wrongMode = d.Bool()
	c.stallUntil = d.I64()
	c.halted = d.Bool()
	c.haltCycle = d.I64()

	c.readyQ = loadRefs(d, c.readyQ)
	for i := range c.calendar {
		c.calendar[i] = loadRefs(d, c.calendar[i])
	}
	c.genNext = d.U64()
	c.retired = d.I64()
	c.barriersHit = d.I64()

	for c.wb.Len() > 0 {
		c.wb.Pop()
	}
	nwb := d.Count(maxSeqList)
	for i := 0; i < nwb; i++ {
		c.wb.Push(d.U64())
	}

	clear(c.tokenSeq)
	nt := d.Count(maxMapEnts)
	for i := 0; i < nt; i++ {
		t := d.I64()
		s := d.I64()
		if d.Err() != nil {
			return
		}
		c.tokenSeq[t] = s
	}
	c.nextToken = d.I64()
	c.lqPerformed = loadSeqs(d, c.lqPerformed)

	clear(c.pinnedRef)
	np := d.Count(maxMapEnts)
	for i := 0; i < np; i++ {
		l := d.U64()
		v := d.Int()
		if d.Err() != nil {
			return
		}
		c.pinnedRef[l] = v
	}
	c.pinFrontier = d.I64()

	hasCST := d.Bool()
	if d.Err() != nil {
		return
	}
	if hasCST != (c.l1CST != nil) {
		d.Failf("CST presence mismatch (config has %v, checkpoint has %v)",
			c.l1CST != nil, hasCST)
		return
	}
	if hasCST {
		c.l1CST.LoadState(d)
		c.dirCST.LoadState(d)
	}
	hasCPT := d.Bool()
	if d.Err() != nil {
		return
	}
	if hasCPT != (c.cpt != nil) {
		d.Failf("CPT presence mismatch (config has %v, checkpoint has %v)",
			c.cpt != nil, hasCPT)
		return
	}
	if hasCPT {
		c.cpt.LoadState(d)
	}

	c.lqTagNext = d.U64()
	for c.pendingUnpins.Len() > 0 {
		c.pendingUnpins.Pop()
	}
	nu := d.Count(maxSeqList)
	for i := 0; i < nu; i++ {
		c.pendingUnpins.Push(d.U64())
	}
	clear(c.tagToSeq)
	ntg := d.Count(maxMapEnts)
	for i := 0; i < ntg; i++ {
		t := d.U32()
		s := d.I64()
		if d.Err() != nil {
			return
		}
		c.tagToSeq[t] = s
	}
	c.wrapStall = d.Bool()

	n1 := d.Count(maxSeqList)
	c.pinsPerL1Set = c.pinsPerL1Set[:0]
	for i := 0; i < n1; i++ {
		c.pinsPerL1Set = append(c.pinsPerL1Set, d.I32())
	}
	nd := d.Count(maxSeqList)
	c.pinsPerDirSet = c.pinsPerDirSet[:0]
	for i := 0; i < nd; i++ {
		c.pinsPerDirSet = append(c.pinsPerDirSet, d.I32())
	}

	c.vpFrontier = d.I64()
	c.pinVPFrontier = d.I64()
	c.pinPendingSeq = d.I64()
	c.oldestLoadSeq = d.I64()
	c.target = d.I64()
	c.doneCycle = d.I64()
	c.lastRetiredWin = d.I64()

	gen.LoadState(d)
}
