package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/metrics"
	"testing"

	"deta/internal/journal"
	"deta/internal/sev"
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

// controlCodec decodes one kind of control-plane body the way its handler
// or caller does, and returns the re-encoding of what it decoded.
// prefixed says the body opens with a u32 length.
type controlCodec struct {
	name     string
	prefixed bool
	decode   func(body []byte) (encode func() []byte, err error)
}

var controlCodecs = []controlCodec{
	// One field, raw: both ways of ap.Nonce, ap.TokenPubKey,
	// ap.RegisterParty, ap.PermKey, deta.Challenge and deta.Register, and
	// the responses of ap.Attest and ap.RoundID.
	{name: "raw", decode: func(b []byte) (func() []byte, error) {
		s := string(b)
		return func() []byte { return []byte(s) }, nil
	}},
	{name: "ap.Endorse request", prefixed: true, decode: func(b []byte) (func() []byte, error) {
		name, pub, err := sev.CutField(b)
		n, p := string(name), bytes.Clone(pub)
		return func() []byte { return append(sev.AppendField(nil, n), p...) }, err
	}},
	{name: "ap.Endorse response", prefixed: true, decode: func(b []byte) (func() []byte, error) {
		ch, err := sev.DecodeChain(b)
		return func() []byte { return sev.AppendChain(nil, ch) }, err
	}},
	{name: "ap.Attest request", prefixed: true, decode: func(b []byte) (func() []byte, error) {
		id, rest, err := sev.CutField(b)
		rep := new(sev.AttestationReport)
		if err == nil {
			rep, err = sev.DecodeReport(rest)
		}
		n := string(id)
		return func() []byte { return sev.AppendReport(sev.AppendField(nil, n), rep) }, err
	}},
	{name: "ap.RoundID request", decode: func(b []byte) (func() []byte, error) {
		_, round, _, err := decodeCtl(b, ctlFields{round: true})
		return func() []byte {
			body, _ := appendCtl(nil, 0, round, "")
			return body
		}, err
	}},
}

// FuzzControlBodies feeds every control-plane decoder arbitrary bodies,
// seeded with real ones. No body may panic a decoder; one that decodes
// re-encodes to the same bytes, and what was decoded does not alias the
// body. Then a length of 2^32-1 is written into the body at a fuzzed
// offset: decoding must not allocate anything near that length, and where
// the offset is the body's leading length it must be refused.
func FuzzControlBodies(f *testing.F) {
	vendor, err := sev.NewVendor()
	if err != nil {
		f.Fatal(err)
	}
	platform, err := sev.NewPlatform("host-1", vendor)
	if err != nil {
		f.Fatal(err)
	}
	cvm, err := platform.LaunchCVM(OVMF)
	if err != nil {
		f.Fatal(err)
	}
	nonce := bytes.Repeat([]byte{0x5a}, 32)
	report, err := platform.AttestCVM(cvm, 0, nonce)
	if err != nil {
		f.Fatal(err)
	}
	_, vcekPub, err := sev.GenerateVCEK()
	if err != nil {
		f.Fatal(err)
	}
	roundID, err := appendCtl(nil, 0, 7, "")
	if err != nil {
		f.Fatal(err)
	}
	// Indexed like controlCodecs.
	seeds := [][][]byte{
		{[]byte("agg-1"), nonce, []byte("P1"), nil},
		{append(sev.AppendField(nil, "host-1"), vcekPub...)},
		{sev.AppendChain(nil, platform.Chain())},
		{sev.AppendReport(sev.AppendField(nil, "agg-1"), report)},
		{roundID},
	}
	for kind, bodies := range seeds {
		for _, body := range bodies {
			f.Add(uint8(kind), uint16(0), body)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, at uint16, body []byte) {
		c := controlCodecs[int(kind)%len(controlCodecs)]
		work := bytes.Clone(body)
		if encode, err := c.decode(work); err == nil {
			for i := range work {
				work[i] ^= 0xff
			}
			if got := encode(); !bytes.Equal(got, body) {
				t.Fatalf("%s: %x re-encodes as %x", c.name, body, got)
			}
		}
		if len(body) < 4 {
			return
		}
		off := int(at) % (len(body) - 3)
		huge := bytes.Clone(body)
		binary.LittleEndian.PutUint32(huge[off:], math.MaxUint32)
		allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		_, err := c.decode(huge)
		metrics.Read(allocated)
		if grew := allocated[0].Value.Uint64() - before; grew > uint64(8*len(huge))+1<<20 {
			t.Fatalf("%s: a 2^32-1 length at offset %d cost %d bytes of allocation", c.name, off, grew)
		}
		if c.prefixed && off == 0 && err == nil {
			t.Fatalf("%s: a leading length of 2^32-1 over %d bytes decoded", c.name, len(huge))
		}
	})
}
