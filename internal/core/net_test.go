package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"deta/internal/attest"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// startNetAggregator provisions an aggregator CVM, serves its protocol on
// an in-memory listener, and returns a connected client plus the AP.
func startNetAggregator(t *testing.T) (*AggregatorClient, *APClient) {
	t.Helper()
	ap := testAP(t)
	return serveNode(t, newProvisionedNode(t, ap, "agg-net")), ap
}

func TestNetPhaseIIAndRound(t *testing.T) {
	client, ap := startNetAggregator(t)
	pub, err := ap.TokenPubKey(context.Background(), "agg-net")
	if err != nil {
		t.Fatal(err)
	}
	// Phase II over the wire.
	if err := VerifyAndRegister(context.Background(), client, pub, "P1", attest.NewNonce, attest.VerifyChallenge); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAndRegister(context.Background(), client, pub, "P2", attest.NewNonce, attest.VerifyChallenge); err != nil {
		t.Fatal(err)
	}

	// One full round over RPC.
	if err := client.Upload(context.Background(), 1, "P1", tensor.Vector{1, 2, 3}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.Aggregate(context.Background(), 1); !errors.Is(err, ErrRoundIncomplete) {
		t.Fatalf("aggregate with one of two uploads = %v, want ErrRoundIncomplete", err)
	}
	if err := client.Upload(context.Background(), 1, "P2", tensor.Vector{3, 4, 5}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.Aggregate(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	frag, err := client.Download(context.Background(), 1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Vector{2, 3, 4}
	for i := range want {
		if frag[i] != want[i] {
			t.Fatalf("fragment %v, want %v", frag, want)
		}
	}
}

func TestNetPhaseIIRejectsWrongKey(t *testing.T) {
	client, _ := startNetAggregator(t)
	// A second, unrelated provisioning yields a different token key.
	otherAP := testAP(t)
	provisionCVM(t, otherAP, "agg-other")
	wrongPub, _ := otherAP.TokenPubKey(context.Background(), "agg-other")
	err := VerifyAndRegister(context.Background(), client, wrongPub, "P1", attest.NewNonce, attest.VerifyChallenge)
	if err == nil || !strings.Contains(err.Error(), "Phase II") {
		t.Fatalf("wrong token accepted: %v", err)
	}
}

func TestNetErrorsPropagate(t *testing.T) {
	client, _ := startNetAggregator(t)
	// Unregistered party upload must surface the remote error.
	if err := client.Upload(context.Background(), 1, "ghost", tensor.Vector{1}, 0, 1); err == nil {
		t.Fatal("remote rejection not propagated")
	}
	if _, err := client.Download(context.Background(), 9, "ghost"); err == nil {
		t.Fatal("remote download rejection not propagated")
	}
	if err := client.Register(context.Background(), ""); err == nil {
		t.Fatal("empty party ID accepted")
	}
	if err := client.Aggregate(context.Background(), 42); err == nil {
		t.Fatal("aggregate of empty round accepted")
	}
}

// gobEncode returns v's gob encoding: what a peer or journal from before
// the fixed layouts wrote.
func gobEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFragmentMessagesHaveOneEncoding: the fragment-bearing RPC bodies
// decode from the fixed-layout codec or not at all — a gob body (what a
// pre-codec peer sent) and a truncated one are errors, with no fallback.
func TestFragmentMessagesHaveOneEncoding(t *testing.T) {
	valid, err := transport.Encode(UploadReq{Round: 1, PartyID: "P1", Fragment: []float64{1, 2, 3}, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	gobBody := gobEncode(t, UploadReq{Round: 1, PartyID: "P1", Fragment: []float64{1, 2, 3}, Weight: 1})
	for _, tc := range []struct {
		name    string
		body    []byte
		wantErr string
	}{
		{"gob body", gobBody, "codec magic"},
		{"empty", nil, "codec magic"},
		{"truncated header", valid[:10], "truncated"},
		{"truncated slab", valid[:len(valid)-3], "disagrees"},
	} {
		for _, dst := range []transport.WireDecoder{new(UploadReq), new(DownloadResp)} {
			err := transport.Decode(tc.body, dst)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s into %T: err = %v, want one mentioning %q", tc.name, dst, err, tc.wantErr)
			}
		}
	}
	var up UploadReq
	if err := transport.Decode(valid, &up); err != nil || up.PartyID != "P1" || len(up.Fragment) != 3 {
		t.Fatalf("valid body: %+v, %v", up, err)
	}
	// The two layouts do not decode as each other either.
	for _, m := range ctlMessages {
		if err := transport.Decode(valid, m.fresh()); err == nil {
			t.Errorf("fragment body decoded into %T", m.msg)
		}
		ctl, err := transport.Encode(m.msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []transport.WireDecoder{new(UploadReq), new(DownloadResp)} {
			if err := transport.Decode(ctl, dst); err == nil {
				t.Errorf("%T body decoded into %T", m.msg, dst)
			}
		}
	}
}

// ctlMessage is one of the six round-control messages, every field set,
// and which of the shared layout's fields it carries.
type ctlMessage struct {
	msg   transport.WireAppender
	round bool
	party bool
}

// fresh returns a pointer to a zero value of the message's type.
func (m ctlMessage) fresh() transport.WireDecoder {
	return reflect.New(reflect.TypeOf(m.msg)).Interface().(transport.WireDecoder)
}

var ctlMessages = []ctlMessage{
	{msg: UploadResp{OK: true}},
	{msg: HeartbeatReq{PartyID: "party-7"}, party: true},
	{msg: HeartbeatResp{OK: true, Rejoined: true}},
	{msg: AggregateReq{Round: 1<<32 - 1}, round: true},
	{msg: AggregateResp{OK: true}},
	{msg: DownloadReq{Round: 3, PartyID: "party-7"}, round: true, party: true},
}

// TestRoundControlBodies: each round-control message survives
// Encode→Decode, and decodes from its own fixed layout or not at all.
func TestRoundControlBodies(t *testing.T) {
	for _, m := range ctlMessages {
		valid, err := transport.Encode(m.msg)
		if err != nil {
			t.Fatal(err)
		}
		got := m.fresh()
		if err := transport.Decode(valid, got); err != nil {
			t.Fatalf("%T: %v", m.msg, err)
		}
		if back := reflect.ValueOf(got).Elem().Interface(); !reflect.DeepEqual(back, m.msg) {
			t.Fatalf("round trip %+v -> %+v", m.msg, back)
		}
		zero, err := transport.Encode(reflect.Zero(reflect.TypeOf(m.msg)).Interface().(transport.WireAppender))
		if err != nil || len(zero) != ctlFixedLen {
			t.Fatalf("zero %T encodes to %d bytes, %v; want the %d fixed ones", m.msg, len(zero), err, ctlFixedLen)
		}

		gobBody := gobEncode(t, m.msg)
		mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
		type hostileBody struct {
			name    string
			body    []byte
			wantErr string
		}
		hostile := []hostileBody{
			{"empty", nil, "truncated"},
			{"short", valid[:ctlFixedLen-1], "truncated"},
			{"unknown flag bit", mutate(func(b []byte) []byte { b[0] |= 0x80; return b }), "unknown flag"},
			{"gob body", gobBody, ""},
		}
		trailing := mutate(func(b []byte) []byte { return append(b, 0) })
		if m.party {
			// The party ID runs to the end of the body, so an extra byte
			// is an extra byte of ID: it must not decode to the same message.
			other := m.fresh()
			if err := transport.Decode(trailing, other); err != nil || reflect.DeepEqual(reflect.ValueOf(other).Elem().Interface(), m.msg) {
				t.Errorf("%T with a trailing byte: %+v, %v; want a different party ID", m.msg, other, err)
			}
		} else {
			hostile = append(hostile, hostileBody{"one trailing byte", trailing, "trailing"})
		}
		if !m.round {
			hostile = append(hostile, hostileBody{"round where none is carried", mutate(func(b []byte) []byte { b[1] = 1; return b }), "carries round"})
		}
		for _, tc := range hostile {
			err := transport.Decode(tc.body, m.fresh())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s into %T: err = %v, want one mentioning %q", tc.name, m.msg, err, tc.wantErr)
			}
		}
	}
	if _, err := transport.Encode(AggregateReq{Round: -1}); err == nil {
		t.Error("negative round encoded")
	}
}

// TestDownloadWhileNextRoundFuses: the download handler encodes the node's
// own fused vector outside the lock. Round 1 is downloaded over RPC while
// round 2 uploads, fuses and (retention 1) evicts round 1; every download
// that succeeds must be the bit-exact fused vector.
func TestDownloadWhileNextRoundFuses(t *testing.T) {
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-dl")
	node.SetRetention(1)
	client := serveNode(t, node)
	ctx := context.Background()
	const n = 1 << 15
	frag := func(seed float64) tensor.Vector {
		v := make(tensor.Vector, n)
		for i := range v {
			v[i] = seed + float64(i)/3
		}
		return v
	}
	for _, p := range []string{"P1", "P2"} {
		node.Register(p)
	}
	if err := node.Upload(1, "P1", frag(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Upload(1, "P2", frag(2), 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	want, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}

	// Each reader reports its first download, so round 2 starts against
	// readers that are already in their loop.
	const readers = 4
	var wg, first sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		first.Add(1)
		go func() {
			defer wg.Done()
			served := 0
			defer func() {
				if served == 0 {
					first.Done() // failed before its first download; don't hang the test
				}
			}()
			for ; ; served++ {
				if served == 1 {
					first.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				got, err := client.Download(ctx, 1, "P1")
				if errors.Is(err, ErrNotAggregated) {
					return // round 1 evicted by round 2's fusion
				}
				if err != nil {
					t.Errorf("download: %v", err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("download of %d coordinates, want %d", len(got), len(want))
					return
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("coordinate %d = %v, want %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	first.Wait()
	for r := 2; r <= 3; r++ {
		if err := client.Upload(ctx, r, "P1", frag(float64(10*r)), 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := client.Upload(ctx, r, "P2", frag(float64(20*r)), 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := client.Aggregate(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
