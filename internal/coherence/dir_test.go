package coherence

import (
	"strings"
	"testing"
	"unsafe"

	"pinnedloads/internal/ckptio"
)

// TestDirLineLayout guards the packed directory-way layout: every LLC way
// of every slice is one dirLine, so a field added or reordered carelessly
// grows the per-system array (Table 1: 262,144 ways) and the cost of
// building each simulated system.
func TestDirLineLayout(t *testing.T) {
	if got := unsafe.Sizeof(dirLine{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(dirLine{}) = %d, want <= 40", got)
	}
}

// validWays counts the ways of ws holding line.
func validWays(ws []dirLine, line uint64) int {
	n := 0
	for i := range ws {
		if ws[i].valid && ws[i].addr == line {
			n++
		}
	}
	return n
}

func TestInstallWarm(t *testing.T) {
	const line = 0x40
	h := newHarness(t, 1)
	d := h.sys.Dir(h.sys.cfg.LLCSlice(line))
	ws := d.set(line)
	other := func(i int) dirLine {
		return dirLine{valid: true, addr: uint64(0x1000+i) << 20, owner: -1}
	}

	t.Run("present after a hole", func(t *testing.T) {
		clear(ws)
		ws[2] = dirLine{valid: true, addr: line, owner: -1}
		d.InstallWarm(line)
		if n := validWays(ws, line); n != 1 {
			t.Fatalf("line held by %d ways, want 1", n)
		}
		if ws[0].valid || ws[1].valid {
			t.Fatal("InstallWarm filled a hole before the way already holding the line")
		}
	})

	t.Run("full set drops the line", func(t *testing.T) {
		for i := range ws {
			ws[i] = other(i)
		}
		d.InstallWarm(line)
		if n := validWays(ws, line); n != 0 {
			t.Fatalf("full set: line installed in %d ways", n)
		}
		for i := range ws {
			if ws[i] != other(i) {
				t.Fatalf("full set: way %d changed to %+v", i, ws[i])
			}
		}
	})

	t.Run("first invalid way", func(t *testing.T) {
		for i := range ws {
			ws[i] = other(i)
		}
		ws[3] = dirLine{}
		ws[5] = dirLine{}
		stamp := d.stamp
		d.InstallWarm(line)
		want := dirLine{valid: true, addr: line, owner: -1, lru: stamp + 1}
		if ws[3] != want {
			t.Fatalf("way 3 = %+v, want %+v", ws[3], want)
		}
		if ws[5].valid {
			t.Fatal("line installed past the first invalid way")
		}
		if n := validWays(ws, line); n != 1 {
			t.Fatalf("line held by %d ways, want 1", n)
		}
	})
}

// pendAcksBlob serializes a directory slice whose first way claims acks
// outstanding recall responses.
func pendAcksBlob(t testing.TB, acks int8) []byte {
	t.Helper()
	h := newHarness(t, 1)
	d := h.sys.Dir(0)
	d.lines[0] = dirLine{valid: true, addr: 0x40, owner: -1, busy: busyRecall, pendAcks: acks}
	e := ckptio.NewEncoder()
	d.SaveState(e)
	return e.Bytes()
}

// TestDirLoadStateBoundsPendAcks: pendAcks is an int8 bounded by the
// 32-bit sharer mask, so a decoded count outside 0..32 is corrupt input
// and must fail the decoder rather than be truncated into the field.
func TestDirLoadStateBoundsPendAcks(t *testing.T) {
	for _, acks := range []int8{0, 1, 32} {
		d := newHarness(t, 1).sys.Dir(0)
		dec := ckptio.NewDecoder(pendAcksBlob(t, acks))
		d.LoadState(dec)
		if err := dec.Err(); err != nil {
			t.Fatalf("pendAcks %d: %v", acks, err)
		}
		if d.lines[0].pendAcks != acks {
			t.Fatalf("pendAcks %d decoded as %d", acks, d.lines[0].pendAcks)
		}
	}
	for _, acks := range []int8{-1, 33, 127} {
		d := newHarness(t, 1).sys.Dir(0)
		dec := ckptio.NewDecoder(pendAcksBlob(t, acks))
		d.LoadState(dec)
		err := dec.Err()
		if err == nil || !strings.Contains(err.Error(), "pending-ack") {
			t.Fatalf("pendAcks %d: LoadState error %v, want a pending-ack count failure", acks, err)
		}
	}
}
