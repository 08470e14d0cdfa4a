package checkpoint

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pinnedloads/internal/arch"
	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/core"
	"pinnedloads/internal/defense"
	"pinnedloads/internal/isa"
	"pinnedloads/internal/trace"
)

func testSystem(t testing.TB) *core.System {
	t.Helper()
	w := trace.ByName("mcf_r")
	if w == nil {
		t.Fatal("mcf profile missing")
	}
	sys, err := core.New(arch.PaperConfig(1), defense.Policy{Scheme: defense.DOM, Variant: defense.LP}, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Meta{Identity: "job-abc123", Cycle: 424242, Fingerprint: 0xdeadbeefcafe}
	payload := []byte("not a real payload, but the format does not care")
	blob := Encode(m, payload)

	got, p, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("meta round-trip: got %+v, want %+v", got, m)
	}
	if string(p) != string(payload) {
		t.Fatalf("payload round-trip: got %q", p)
	}
}

// TestDecodeRejectsUnknownVersion covers a future version and version 2,
// whose payload has a different ROB ring length: both must fail at Decode
// with a typed error, before a caller builds a system to restore into.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	for _, v := range []uint8{2, 99} {
		blob := Encode(Meta{Identity: "x"}, []byte("payload"))
		blob[4] = v // version byte

		_, _, err := Decode(blob)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("version %d: want *VersionError, got %v", v, err)
		}
		if ve.Version != v {
			t.Fatalf("VersionError.Version = %d, want %d", ve.Version, v)
		}
	}
}

// pendAcksCheckpoint captures a real checkpoint and rewrites the first
// way of directory slice 0 to claim 33 outstanding recall responses, one
// more than the 32-core sharer mask allows. It finds that way by encoding
// the slice on its own, locating those bytes in the payload, and decoding
// the way's fields up to pendAcks in Dir.SaveState's order.
func pendAcksCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	sys := testSystem(tb)
	if _, err := sys.Run(200, 500); err != nil {
		tb.Fatal(err)
	}
	blob, err := Capture(sys, "pend-acks")
	if err != nil {
		tb.Fatal(err)
	}
	m, payload, err := Decode(blob)
	if err != nil {
		tb.Fatal(err)
	}
	e := ckptio.NewEncoder()
	sys.Mem().Dir(0).SaveState(e)
	dir := e.Bytes()
	at := bytes.Index(payload, dir)
	if at < 0 {
		tb.Fatal("directory slice 0 not found in the payload")
	}
	d := ckptio.NewDecoder(dir)
	d.U64() // stamp
	d.Int() // ways
	d.Bool()
	d.U64()
	d.U32()
	d.I64()
	d.U8()
	d.I64()
	d.Bool()
	d.U32()
	off := len(dir) - len(d.Rest())
	if dir[off] != 0 {
		tb.Fatalf("way 0 of slice 0 has pending acks (byte %#x)", dir[off])
	}
	patched := append([]byte(nil), payload...)
	patched[at+off] = 33 << 1 // zigzag varint of 33, same length as 0
	return Encode(m, patched)
}

// TestRestoreRejectsPendAcksOutOfRange: the decoder bounds the narrowed
// pendAcks field instead of truncating an out-of-range count into it.
func TestRestoreRejectsPendAcksOutOfRange(t *testing.T) {
	_, err := Restore(pendAcksCheckpoint(t), testSystem(t))
	if err == nil || !strings.Contains(err.Error(), "pending-ack") {
		t.Fatalf("Restore: got %v, want a pending-ack count failure", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := Encode(Meta{Identity: "x", Cycle: 7}, []byte("some payload bytes"))

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", blob[:5]},
		{"bad magic", append([]byte("NOPE"), blob[4:]...)},
		{"truncated", blob[:len(blob)-3]},
		{"flipped payload byte", flip(blob, len(blob)-1)},
		{"flipped meta byte", flip(blob, 10)},
		{"flipped crc byte", flip(blob, 6)},
	} {
		_, _, err := Decode(tc.data)
		if err == nil {
			t.Errorf("%s: Decode accepted corrupt data", tc.name)
			continue
		}
		var ve *VersionError
		if errors.As(err, &ve) {
			t.Errorf("%s: got VersionError for corruption: %v", tc.name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

func TestCaptureRestoreFingerprint(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.Run(500, 2000); err != nil {
		t.Fatal(err)
	}
	blob, err := Capture(sys, "run-1")
	if err != nil {
		t.Fatal(err)
	}

	m, _, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.Identity != "run-1" || m.Cycle != sys.Cycle() || m.Fingerprint != sys.Fingerprint() {
		t.Fatalf("capture meta %+v does not match system (cycle %d, fp %x)",
			m, sys.Cycle(), sys.Fingerprint())
	}

	// Restoring into a system with a different policy must fail typed.
	w := trace.ByName("mcf_r")
	other, err := core.New(arch.PaperConfig(1), defense.Policy{Scheme: defense.Fence}, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restore(blob, other)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError restoring into different policy, got %v", err)
	}
	if !strings.Contains(err.Error(), "policy") {
		t.Fatalf("mismatch error should mention policy: %v", err)
	}

	// Restoring into an identical fresh system succeeds and lands on the
	// snapshot cycle.
	fresh := testSystem(t)
	m2, err := Restore(blob, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Fatalf("restore meta %+v != capture meta %+v", m2, m)
	}
	if fresh.Cycle() != sys.Cycle() {
		t.Fatalf("restored cycle %d, want %d", fresh.Cycle(), sys.Cycle())
	}
	if !fresh.Resumed() {
		t.Fatal("restored system not marked resumed")
	}
}

func TestCaptureRejectsOpaqueWorkload(t *testing.T) {
	// The built-in sources are checkpointable; a custom generator that does
	// not implement the ckptio interfaces must fail Capture with a clear
	// error instead of producing an unresumable snapshot.
	sys, err := core.New(arch.PaperConfig(1),
		defense.Policy{Scheme: defense.Unsafe}, uncheckpointable{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := Capture(sys, "x"); err == nil ||
		!strings.Contains(err.Error(), "not checkpointable") {
		t.Fatalf("want not-checkpointable error, got %v", err)
	}
}

type uncheckpointable struct{}

func (uncheckpointable) Name() string { return "opaque" }
func (uncheckpointable) Cores() int   { return 1 }
func (uncheckpointable) Generator(core int, seed uint64) trace.Generator {
	return opaqueGen{}
}

type opaqueGen struct{}

func (opaqueGen) Next() isa.Inst      { return isa.Inst{Op: isa.Halt} }
func (opaqueGen) WrongPath() isa.Inst { return isa.Inst{} }
