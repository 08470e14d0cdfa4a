// Package checkpoint defines the on-disk format for simulation snapshots
// and the helpers that capture and restore complete core.System state.
//
// A checkpoint is a single self-validating blob:
//
//	offset 0: magic "PLCK" (4 bytes)
//	offset 4: format version (1 byte)
//	offset 5: CRC32-IEEE, little-endian, over everything after it (4 bytes)
//	offset 9: metadata (identity string, cycle, fingerprint) followed by
//	          the raw core.System payload, all in ckptio encoding
//
// The CRC rejects corruption and truncation; the version byte gates format
// evolution (an unknown version is a typed VersionError, never a
// misparse); and the fingerprint ties the payload to the exact machine
// configuration and defense policy it was captured under, so a snapshot
// can only restore into an identically configured system.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pinnedloads/internal/ckptio"
	"pinnedloads/internal/core"
)

// Version is the current checkpoint format version. Version 2 added the
// reversible-speculation state (RCP scheme): ROB-entry spec tokens, the
// L1's spec-transaction journal and MSHR spec flags, and the directory's
// spec-born line marks. Version 3 sizes each core's ROB ring to the next
// power of two >= Config.ROBEntries, so the ring length in the payload (256
// slots for the 192-entry Table 1 ROB) changed; a version-2 blob is
// rejected at Decode instead of failing inside Restore.
const Version = 3

// magic identifies a pinnedloads checkpoint.
const magic = "PLCK"

// headerLen is the fixed prefix before the checksummed region: magic,
// version byte and CRC32.
const headerLen = len(magic) + 1 + 4

// Meta describes a checkpoint without its payload.
type Meta struct {
	// Identity names what is being checkpointed — typically the service
	// job ID or the speckey run key — so a resume can verify it is
	// continuing the right run.
	Identity string
	// Cycle is the simulation cycle the snapshot was taken at.
	Cycle int64
	// Fingerprint is core.System.Fingerprint() of the captured system.
	Fingerprint uint64
}

// VersionError reports a checkpoint written by an unknown format version.
type VersionError struct {
	Version uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported format version %d (supported: %d)",
		e.Version, Version)
}

// MismatchError reports a checkpoint whose fingerprint does not match the
// system it was asked to restore into.
type MismatchError struct {
	Want, Got uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: fingerprint %016x does not match system %016x (different configuration or policy)",
		e.Got, e.Want)
}

// ErrCorrupt reports a checkpoint that failed structural validation.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated data")

// Encode wraps a core.System payload and its metadata into a checkpoint
// blob.
func Encode(m Meta, payload []byte) []byte {
	e := ckptio.NewEncoder()
	e.String(m.Identity)
	e.I64(m.Cycle)
	e.U64(m.Fingerprint)
	meta := e.Bytes()

	buf := make([]byte, 0, headerLen+len(meta)+len(payload))
	buf = append(buf, magic...)
	buf = append(buf, Version)
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	buf = append(buf, meta...)
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[headerLen:])
	binary.LittleEndian.PutUint32(buf[len(magic)+1:headerLen], crc)
	return buf
}

// Decode validates a checkpoint blob and returns its metadata and raw
// payload. The returned payload aliases data. Corruption anywhere in the
// blob yields a wrapped ErrCorrupt; an unknown version byte yields a
// *VersionError.
func Decode(data []byte) (Meta, []byte, error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return Meta{}, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := data[len(magic)]; v != Version {
		return Meta{}, nil, &VersionError{Version: v}
	}
	want := binary.LittleEndian.Uint32(data[len(magic)+1 : headerLen])
	if got := crc32.ChecksumIEEE(data[headerLen:]); got != want {
		return Meta{}, nil, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	d := ckptio.NewDecoder(data[headerLen:])
	var m Meta
	m.Identity = d.String()
	m.Cycle = d.I64()
	m.Fingerprint = d.U64()
	payload := d.Rest()
	if err := d.Err(); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, payload, nil
}

// Capture snapshots a system into a checkpoint blob under the given
// identity. The system must be at a cycle boundary (between Ticks); Run's
// checkpoint hook guarantees this.
func Capture(sys *core.System, identity string) ([]byte, error) {
	payload, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return Encode(Meta{
		Identity:    identity,
		Cycle:       sys.Cycle(),
		Fingerprint: sys.Fingerprint(),
	}, payload), nil
}

// Restore validates a checkpoint blob against the target system's
// fingerprint and overwrites the system's state with the snapshot. On
// success the system continues from Meta.Cycle as if it had never stopped.
func Restore(data []byte, sys *core.System) (Meta, error) {
	m, payload, err := Decode(data)
	if err != nil {
		return Meta{}, err
	}
	if want := sys.Fingerprint(); m.Fingerprint != want {
		return Meta{}, &MismatchError{Want: want, Got: m.Fingerprint}
	}
	if err := sys.Restore(payload); err != nil {
		return Meta{}, err
	}
	return m, nil
}
