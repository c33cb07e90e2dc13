package core

import (
	"bytes"
	"math"
	"testing"

	"deta/internal/journal"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// FuzzShuffleRoundTrip drives the shuffle/unshuffle pair with arbitrary
// keys, round identifiers, and vector contents: the round trip must always
// be the identity and never panic.
func FuzzShuffleRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("round-1"), 16, int64(42))
	f.Add([]byte("another-32-byte-permutation-key!"), []byte{0}, 1, int64(-7))
	f.Add([]byte("0123456789abcdefXYZ"), []byte("r"), 100, int64(0))
	f.Fuzz(func(t *testing.T, key, roundID []byte, n int, fill int64) {
		if len(key) < 16 || n < 0 || n > 4096 {
			t.Skip()
		}
		s, err := NewShuffler(key)
		if err != nil {
			t.Skip()
		}
		v := make(tensor.Vector, n)
		for i := range v {
			v[i] = float64(fill) + float64(i)*0.5
		}
		for partition := 0; partition < 3; partition++ {
			sh := mustShuffle(t, s, v, roundID, partition)
			back := mustUnshuffle(t, s, sh, roundID, partition)
			for i := range v {
				if back[i] != v[i] {
					t.Fatalf("round trip failed at %d (partition %d)", i, partition)
				}
			}
		}
	})
}

// FuzzMapperRoundTrip drives Partition/Merge with arbitrary seeds, sizes,
// and proportion splits.
func FuzzMapperRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), 10, uint8(128))
	f.Add([]byte{}, 1, uint8(0))
	f.Add([]byte("x"), 999, uint8(255))
	f.Fuzz(func(t *testing.T, seed []byte, n int, splitRaw uint8) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		// A two-way split with an arbitrary proportion in (0,1).
		p := (float64(splitRaw) + 1) / 257
		m, err := NewMapper(n, []float64{p, 1 - p}, seed)
		if err != nil {
			t.Fatalf("mapper rejected valid inputs: %v", err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid mapper: %v", err)
		}
		v := make(tensor.Vector, n)
		for i := range v {
			v[i] = float64(i)
		}
		frags, err := m.Partition(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := m.Merge(frags)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("merge mismatch at %d", i)
			}
		}
	})
}

// FuzzDecodeRecord feeds replay's record decoder arbitrary (type, payload)
// pairs. It must never panic, and whatever it accepts must survive
// re-encoding: decode, append, decode gives back the same record. A fused
// round's payload is kept as a copy, never an alias of the log buffer. An
// upload's values are decoded as recovery reads them back.
func FuzzDecodeRecord(f *testing.F) {
	upload, err := transport.AppendFragment(nil, &transport.Fragment{
		Round: 3, Index: 2, PartyID: "P1", Weight: 0.5, Values: tensor.Vector{1, math.NaN(), -0.0},
	})
	if err != nil {
		f.Fatal(err)
	}
	fused, err := transport.AppendFragment(nil, &transport.Fragment{Round: 3, Values: tensor.Vector{2, 4}})
	if err != nil {
		f.Fatal(err)
	}
	event, err := appendCtl(nil, 0, 7, "P1")
	if err != nil {
		f.Fatal(err)
	}
	for _, typ := range []uint8{recRegister, recQuorum, recRetention, 7, recUpload, recAggregate, recEvict, recRejoin, 2, 4, 12} {
		for _, payload := range [][]byte{upload, fused, event, event[:ctlFixedLen], nil} {
			f.Add(typ, payload)
		}
	}
	// decode is replay's decode of one record, plus the read-back of an
	// upload's values, which must succeed whenever its header decoded.
	decode := func(t *testing.T, typ uint8, data []byte) (record, error) {
		rec, err := decodeRecord(journal.Record{Type: typ, Data: data}, 0)
		if err == nil && rec.unread {
			var f transport.Fragment
			if err := transport.DecodeFragment(data, &f); err != nil {
				t.Fatalf("upload header decoded but its values did not: %v", err)
			}
			rec.frag, rec.unread = f.Values, false
		}
		return rec, err
	}
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		rec, err := decode(t, typ, payload)
		if err != nil {
			return
		}
		if len(rec.wire) > 0 && &rec.wire[0] == &payload[0] {
			t.Fatal("decoded record aliases the log buffer")
		}
		data := rec.wire
		if data == nil {
			if data, err = appendRecord(nil, rec); err != nil {
				t.Fatalf("re-encoding decoded record %+v: %v", rec, err)
			}
		}
		again, err := decode(t, typ, data)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec.typ != again.typ || rec.n != again.n || rec.party != again.party ||
			math.Float64bits(rec.weight) != math.Float64bits(again.weight) ||
			!slicesEqualBits(rec.frag, again.frag) || !bytes.Equal(rec.wire, again.wire) {
			t.Fatalf("decode/append/decode changed the record: %+v -> %+v", rec, again)
		}
	})
}

// slicesEqualBits reports whether a and b hold the same float bits.
func slicesEqualBits(a, b tensor.Vector) bool {
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
