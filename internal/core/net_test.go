package core

import (
	"context"
	"strings"
	"testing"

	"deta/internal/attest"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// startNetAggregator provisions an aggregator CVM, serves its protocol on
// an in-memory listener, and returns a connected client plus the proxy.
func startNetAggregator(t *testing.T) (*AggregatorClient, *attest.Proxy) {
	t.Helper()
	proxy, vendor := testTrust(t)
	return serveNode(t, newProvisionedNode(t, proxy, vendor, "agg-net")), proxy
}

func TestNetPhaseIIAndRound(t *testing.T) {
	client, ap := startNetAggregator(t)
	pub, err := ap.TokenPubKey("agg-net")
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
	done, _, err := client.Complete(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("round complete with one of two uploads")
	}
	if err := client.Upload(context.Background(), 1, "P2", tensor.Vector{3, 4, 5}, 0, 1); err != nil {
		t.Fatal(err)
	}
	done, _, err = client.Complete(context.Background(), 1)
	if err != nil || !done {
		t.Fatalf("complete = %v, %v", done, err)
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
	vendor, _ := sev.NewVendor()
	platform, _ := sev.NewPlatform("other", vendor)
	otherAP := attest.NewProxy(vendor.RAS(), OVMF)
	cvm, _ := platform.LaunchCVM(OVMF)
	if _, err := otherAP.Provision("agg-other", platform, cvm); err != nil {
		t.Fatal(err)
	}
	wrongPub, _ := otherAP.TokenPubKey("agg-other")
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

// TestFragmentMessagesHaveOneEncoding: the fragment-bearing RPC bodies
// decode from the fixed-layout codec or not at all — a gob body (what a
// pre-codec peer sent) and a truncated one are errors, with no fallback.
func TestFragmentMessagesHaveOneEncoding(t *testing.T) {
	valid, err := transport.Encode(UploadReq{Round: 1, PartyID: "P1", Fragment: []float64{1, 2, 3}, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	gobBody, err := encodeWAL(UploadReq{Round: 1, PartyID: "P1", Fragment: []float64{1, 2, 3}, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
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
		for _, dst := range []any{new(UploadReq), new(DownloadResp)} {
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
}
