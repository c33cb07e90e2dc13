package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deta/internal/tensor"
)

// codec_test.go pins the fragment wire format three ways: a property test
// proving the binary codec decodes to the same bits as encoding/gob, the
// reference (including non-finite floats), a golden byte-layout test that
// freezes the v1 header so it cannot drift silently, and hostile-input
// tests proving lying length fields error before allocating and that
// Decode has no second encoding to fall back to.

// fragMsg mirrors the shape of core.UploadReq without importing core
// (which would cycle): a wire message whose body is one fragment.
type fragMsg struct {
	Round   int
	Index   int
	PartyID string
	Weight  float64
	Values  tensor.Vector
}

func (m fragMsg) AppendWire(dst []byte) ([]byte, error) {
	return AppendFragment(dst, &Fragment{
		Round: m.Round, Index: m.Index, PartyID: m.PartyID,
		Weight: m.Weight, Values: m.Values,
	})
}

func (m *fragMsg) DecodeWire(data []byte) error {
	var f Fragment
	if err := DecodeFragment(data, &f); err != nil {
		return err
	}
	m.Round, m.Index, m.PartyID, m.Weight, m.Values =
		f.Round, f.Index, f.PartyID, f.Weight, f.Values
	return nil
}

// awkwardFloats are the values a naive text or varint encoding mangles;
// bit-pattern comparison below catches any such regression.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7FF8_0000_0000_0001), // NaN with payload bits
	math.Float64frombits(0xFFF0_0000_0000_0042), // negative NaN payload
	math.SmallestNonzeroFloat64, math.MaxFloat64,
	1e-308, // subnormal territory
}

// randomFragment builds a fragment whose values mix ordinary randoms with
// every awkward float, at a size drawn from r.
func randomFragment(r *rand.Rand) Fragment {
	n := r.Intn(257)
	vals := make(tensor.Vector, n)
	for i := range vals {
		if i < len(awkwardFloats) {
			vals[i] = awkwardFloats[i]
		} else {
			vals[i] = r.NormFloat64()
		}
	}
	return Fragment{
		Round:   r.Intn(1 << 20),
		Index:   r.Intn(64),
		PartyID: fmt.Sprintf("party-%d", r.Intn(1000)),
		Weight:  r.Float64(),
		Values:  vals,
	}
}

// bitsEqual compares float slices by bit pattern, so NaN == NaN when the
// payload matches and +0.0 != -0.0.
func bitsEqual(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFragmentCodecGobEquivalence: for the same message, the wire codec
// (through Encode/Decode) and encoding/gob used directly as the reference
// must decode to bit-identical results — NaN payloads, ±Inf and -0.0
// included.
func TestFragmentCodecGobEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		f := randomFragment(r)
		in := fragMsg{Round: f.Round, Index: f.Index, PartyID: f.PartyID, Weight: f.Weight, Values: f.Values}

		binBody, err := Encode(&in)
		if err != nil {
			t.Fatalf("trial %d: binary encode: %v", trial, err)
		}
		var gobBody bytes.Buffer
		if err := gob.NewEncoder(&gobBody).Encode(&in); err != nil {
			t.Fatalf("trial %d: gob encode: %v", trial, err)
		}

		var fromBin, fromGob fragMsg
		if err := Decode(binBody, &fromBin); err != nil {
			t.Fatalf("trial %d: decode binary body: %v", trial, err)
		}
		if err := gob.NewDecoder(&gobBody).Decode(&fromGob); err != nil {
			t.Fatalf("trial %d: gob reference decode: %v", trial, err)
		}

		for name, got := range map[string]fragMsg{"binary": fromBin, "gob": fromGob} {
			if got.Round != in.Round || got.Index != in.Index ||
				got.PartyID != in.PartyID ||
				math.Float64bits(got.Weight) != math.Float64bits(in.Weight) {
				t.Fatalf("trial %d: %s header mismatch: got %+v want %+v", trial, name, got, in)
			}
			if !bitsEqual(got.Values, in.Values) {
				t.Fatalf("trial %d: %s values not bit-identical", trial, name)
			}
		}
		tensor.PutVector(fromBin.Values)
	}
}

// TestFragmentHeaderLayoutPin freezes the v1 wire bytes. If this test
// breaks, the layout changed: bump FragmentVersion and add a new pin —
// never edit the expected bytes in place.
func TestFragmentHeaderLayoutPin(t *testing.T) {
	f := Fragment{
		Round:   0x01020304,
		Index:   0x0A0B0C0D,
		PartyID: "AB",
		Weight:  1.5, // bits 0x3FF8000000000000
		Values:  tensor.Vector{2.0, math.Float64frombits(0x7FF8000000000001)},
	}
	got, err := AppendFragment(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0xD7, 0xF5, // magic
		0x01,                   // version 1
		0x01,                   // dtype float64
		0x04, 0x03, 0x02, 0x01, // round, LE
		0x0D, 0x0C, 0x0B, 0x0A, // fragment index, LE
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, // weight 1.5 bits, LE
		0x02, 0x00, // party len, LE
		'A', 'B', // party ID
		0x02, 0x00, 0x00, 0x00, // element count, LE
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // 2.0
		0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F, // NaN payload 1
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v1 fragment layout drifted:\n got %x\nwant %x", got, want)
	}
	// And the frozen bytes must decode back to the same fragment.
	var back Fragment
	if err := DecodeFragment(want, &back); err != nil {
		t.Fatalf("pinned bytes failed to decode: %v", err)
	}
	if back.Round != f.Round || back.Index != f.Index || back.PartyID != f.PartyID ||
		math.Float64bits(back.Weight) != math.Float64bits(f.Weight) ||
		!bitsEqual(back.Values, f.Values) {
		t.Fatalf("pinned bytes decoded to %+v, want %+v", back, f)
	}
}

// TestFragmentAppendReusesDst: encoding into a caller buffer with spare
// capacity must not allocate a fresh backing array.
func TestFragmentAppendReusesDst(t *testing.T) {
	f := Fragment{PartyID: "p", Values: tensor.Vector{1, 2, 3, 4}}
	dst := make([]byte, 0, 4096)
	out, err := AppendFragment(dst, &f)
	if err != nil {
		t.Fatal(err)
	}
	if &out[:1][0] != &dst[:1][0] {
		t.Fatal("AppendFragment reallocated despite sufficient capacity")
	}
}

// hostileBody mutates a valid encoding at a given offset — the helper for
// lying-length tests below.
func hostileBody(t *testing.T, mutate func(b []byte) []byte) []byte {
	t.Helper()
	f := Fragment{Round: 1, Index: 0, PartyID: "p1", Weight: 1, Values: tensor.Vector{1, 2, 3}}
	b, err := AppendFragment(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	return mutate(b)
}

// TestFragmentDecodeHostile: every malformed body must error with a
// diagnostic, never panic, and never allocate for a lying count — through
// DecodeFragment and through Decode into a WireDecoder alike, which has no
// other encoding to retry with. The huge counts here would be multi-GiB
// allocations if validation ran after make; the AllocsPerRun bound proves
// it runs before.
func TestFragmentDecodeHostile(t *testing.T) {
	countOff := fragFixedLen + 2 // after the 2-byte party ID "p1"
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(&fragMsg{Round: 1, PartyID: "p1", Weight: 1, Values: tensor.Vector{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		body    []byte
		wantErr string
	}{
		{"empty", nil, "codec magic"},
		{"bad magic", []byte{0x00, 0x01, 0x02}, "codec magic"},
		{"gob body", gobBody.Bytes(), "codec magic"},
		{"truncated header", []byte{0xD7, 0xF5, 0x01}, "truncated"},
		{"unknown version", hostileBody(t, func(b []byte) []byte { b[2] = 9; return b }), "wire version"},
		{"unknown dtype", hostileBody(t, func(b []byte) []byte { b[3] = 7; return b }), "dtype"},
		{"party overruns body", hostileBody(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[20:22], 0xFFFF)
			return b
		}), "overruns"},
		{"count exceeds slab", hostileBody(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], 0xFFFF_FFFF)
			return b
		}), "disagrees"},
		{"count below slab", hostileBody(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[countOff:], 1)
			return b
		}), "disagrees"},
		{"slab truncated", hostileBody(t, func(b []byte) []byte { return b[:len(b)-5] }), "disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f Fragment
			err := DecodeFragment(tc.body, &f)
			if err == nil {
				t.Fatalf("hostile body decoded: %+v", f)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			var m fragMsg
			if derr := Decode(tc.body, &m); derr == nil || derr.Error() != err.Error() {
				t.Fatalf("Decode into a WireDecoder: err %v, want the codec's %q", derr, err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				var g Fragment
				DecodeFragment(tc.body, &g)
			})
			// The error path may allocate the error value itself, but a
			// lying multi-GiB count must not reach make: a handful of
			// allocations, not a slab-sized one, is the ceiling. (A
			// 0xFFFFFFFF count reaching make would be a 32 GiB request —
			// the test completing at all is the other half of the proof.)
			if allocs > 8 {
				t.Fatalf("hostile decode made %.0f allocations", allocs)
			}
		})
	}
}

// TestFragmentAppendRejectsOutOfRange: header fields that cannot be
// represented must fail at encode time, not truncate silently.
func TestFragmentAppendRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Fragment
	}{
		{"negative round", Fragment{Round: -1}},
		{"round over uint32", Fragment{Round: math.MaxUint32 + 1}},
		{"negative index", Fragment{Index: -1}},
		{"party over uint16", Fragment{PartyID: strings.Repeat("x", math.MaxUint16+1)}},
		{"body over MaxFrame", Fragment{Values: make(tensor.Vector, MaxFrame/8+1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AppendFragment(nil, &tc.f); err == nil {
				t.Fatal("out-of-range fragment encoded without error")
			}
		})
	}
}

// FuzzFragmentCodec: arbitrary bytes through DecodeFragment must never
// panic or over-allocate, and any body that decodes must re-encode to the
// exact same bytes (the layout has no redundant representations).
func FuzzFragmentCodec(f *testing.F) {
	valid, err := AppendFragment(nil, &Fragment{
		Round: 42, Index: 3, PartyID: "party-1", Weight: 0.25,
		Values: tensor.Vector{1.5, math.NaN(), math.Inf(-1), math.Copysign(0, -1)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xD7, 0xF5})
	f.Add(valid[:fragFixedLen])               // header only, no count
	f.Add(append([]byte(nil), valid[:30]...)) // truncated slab
	f.Add(hostileCount(valid, 0xFFFF_FFFF))   // lying count, huge
	f.Add(hostileCount(valid, 0))             // lying count, zero
	f.Add(func() []byte {                     // lying party length
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint16(b[20:22], 0xFFFF)
		return b
	}())
	f.Fuzz(func(t *testing.T, raw []byte) {
		var frag Fragment
		if err := DecodeFragment(raw, &frag); err != nil {
			return
		}
		re, err := AppendFragment(nil, &frag)
		if err != nil {
			t.Fatalf("decoded fragment failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs from accepted body:\n in %x\nout %x", raw, re)
		}
		tensor.PutVector(frag.Values)
	})
}

// hostileCount rewrites the element count of a valid encoding (party ID
// "party-1", 7 bytes) without fixing up the slab.
func hostileCount(valid []byte, count uint32) []byte {
	b := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(b[fragFixedLen+7:], count)
	return b
}
