package transport

// codec.go: the fragment codec. Fragment payloads are large float64 slabs
// exchanged on every round by every party, where gob's reflection and
// per-element varint encoding dominated the upload path; they travel as a
// fixed-layout binary message, decoded straight into pooled tensor buffers.
// The small messages of the round loop have a fixed layout of their own
// (core/net.go); gob is left to the bodies sent once per connection or per
// deployment (attestation, registration).
//
// Fragment wire layout, version 1 (all multi-byte fields little-endian):
//
//	offset  size  field
//	0       2     magic 0xD7 0xF5
//	2       1     version (1)
//	3       1     dtype (1 = float64)
//	4       4     round        uint32
//	8       4     fragment idx uint32
//	12      8     weight       IEEE-754 bits
//	20      2     party ID len uint16
//	22      n     party ID bytes (UTF-8)
//	22+n    4     element count uint32
//	26+n    8*c   float64 slab, IEEE-754 bits little-endian
//
// Versioning: this is the only encoding of a fragment. A body that does
// not open with the magic pair is a decode error, and any layout change
// bumps the version byte; decoders reject versions they do not know rather
// than guessing. The element count is validated against the bytes actually
// present BEFORE any allocation, so a hostile count cannot force a huge
// alloc.

import (
	"encoding/binary"
	"fmt"
	"math"

	"deta/internal/tensor"
)

// WireAppender is implemented by messages with a fixed-layout binary
// encoding (value receivers, so both values and pointers qualify).
type WireAppender interface {
	AppendWire(dst []byte) ([]byte, error)
}

// WireDecoder is the decoding half, implemented on pointer receivers.
type WireDecoder interface {
	DecodeWire(data []byte) error
}

const (
	fragMagic0 = 0xD7
	fragMagic1 = 0xF5

	// FragmentVersion is the current fragment wire-layout version.
	FragmentVersion = 1

	fragDtypeF64 = 1

	// fragFixedLen is the byte length of the fixed header fields before
	// the variable-length party ID.
	fragFixedLen = 22
	// fragCountLen is the element-count field after the party ID.
	fragCountLen = 4
)

// Fragment is the data-plane payload: one transformed model fragment
// plus the routing header carried on the wire.
type Fragment struct {
	Round   int
	Index   int // fragment / partition index
	PartyID string
	Weight  float64
	Values  tensor.Vector
}

// AppendFragment appends f's fixed-layout encoding to dst (which may be
// nil) and returns the extended slice. One exact-size allocation when
// dst lacks capacity; float bits are copied verbatim, so NaN payloads,
// ±Inf, and -0.0 survive bit-identically.
//
//perf:hotpath
func AppendFragment(dst []byte, f *Fragment) ([]byte, error) {
	if f.Round < 0 || int64(f.Round) > math.MaxUint32 {
		return nil, fmt.Errorf("transport: fragment round %d outside uint32 range", f.Round)
	}
	if f.Index < 0 || int64(f.Index) > math.MaxUint32 {
		return nil, fmt.Errorf("transport: fragment index %d outside uint32 range", f.Index)
	}
	if len(f.PartyID) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: party ID of %d bytes exceeds uint16 length field", len(f.PartyID))
	}
	need := fragFixedLen + len(f.PartyID) + fragCountLen + 8*len(f.Values)
	if need > MaxFrame {
		return nil, fmt.Errorf("transport: fragment of %d bytes exceeds frame limit", need)
	}
	if cap(dst)-len(dst) < need {
		//lint:ignore allocfree single exact-size grow when the caller's buffer lacks capacity
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	var hdr [fragFixedLen]byte
	hdr[0], hdr[1] = fragMagic0, fragMagic1
	hdr[2] = FragmentVersion
	hdr[3] = fragDtypeF64
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(f.Round))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(f.Index))
	binary.LittleEndian.PutUint64(hdr[12:20], math.Float64bits(f.Weight))
	binary.LittleEndian.PutUint16(hdr[20:22], uint16(len(f.PartyID)))
	//lint:ignore allocfree capacity reserved above; this append cannot grow
	dst = append(dst, hdr[:]...)
	//lint:ignore allocfree capacity reserved above; this append cannot grow
	dst = append(dst, f.PartyID...)
	var cnt [fragCountLen]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(f.Values)))
	//lint:ignore allocfree capacity reserved above; this append cannot grow
	dst = append(dst, cnt[:]...)
	at := len(dst)
	dst = dst[:at+8*len(f.Values)]
	for _, x := range f.Values {
		binary.LittleEndian.PutUint64(dst[at:at+8], math.Float64bits(x))
		at += 8
	}
	return dst, nil
}

// DecodeFragment parses a fixed-layout fragment into f. Every length
// field is validated against the bytes actually present before any
// allocation: a lying element count or party length is an error, never a
// multi-GiB make. Values lands in a pooled tensor buffer — hand it to
// tensor.PutVector when done, or keep it; the pool is best-effort.
//
//perf:hotpath
func DecodeFragment(data []byte, f *Fragment) error {
	if len(data) < 2 || data[0] != fragMagic0 || data[1] != fragMagic1 {
		return fmt.Errorf("transport: fragment body lacks codec magic")
	}
	if len(data) < fragFixedLen+fragCountLen {
		return fmt.Errorf("transport: fragment header truncated at %d bytes", len(data))
	}
	if v := data[2]; v != FragmentVersion {
		return fmt.Errorf("transport: unknown fragment wire version %d (have %d)", v, FragmentVersion)
	}
	if dt := data[3]; dt != fragDtypeF64 {
		return fmt.Errorf("transport: unknown fragment dtype %d", dt)
	}
	partyLen := int(binary.LittleEndian.Uint16(data[20:22]))
	off := fragFixedLen + partyLen
	if len(data) < off+fragCountLen {
		return fmt.Errorf("transport: fragment party ID of %d bytes overruns %d-byte body", partyLen, len(data))
	}
	count := binary.LittleEndian.Uint32(data[off : off+fragCountLen])
	slab := data[off+fragCountLen:]
	if uint64(count)*8 != uint64(len(slab)) {
		return fmt.Errorf("transport: fragment count %d disagrees with %d slab bytes", count, len(slab))
	}
	f.Round = int(binary.LittleEndian.Uint32(data[4:8]))
	f.Index = int(binary.LittleEndian.Uint32(data[8:12]))
	f.Weight = math.Float64frombits(binary.LittleEndian.Uint64(data[12:20]))
	f.PartyID = string(data[fragFixedLen:off])
	vals := tensor.GetVector(int(count))
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(slab[8*i : 8*i+8]))
	}
	f.Values = vals
	return nil
}
