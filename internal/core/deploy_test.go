package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/sev"
	"deta/internal/transport"
)

// startAPService serves the control plane over an in-memory listener.
func startAPService(t *testing.T) (*APService, *APClient) {
	t.Helper()
	svc, err := NewAPService(OVMF, 32)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	svc.Serve(srv)
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	client := &APClient{C: transport.NewClient(conn)}
	t.Cleanup(func() { client.C.Close() })
	return svc, client
}

// remotePlatform builds a platform whose VCEK is endorsed over RPC, the
// way cmd/deta-aggregator does.
func remotePlatform(t *testing.T, ap *APClient, name string) *sev.Platform {
	t.Helper()
	key, pub, err := sev.GenerateVCEK()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ap.Endorse(context.Background(), name, pub)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sev.NewEndorsedPlatform(name, chain, key)
	if err != nil {
		t.Fatal(err)
	}
	return platform
}

func TestRemoteEndorsementChainVerifies(t *testing.T) {
	svc, ap := startAPService(t)
	platform := remotePlatform(t, ap, "remote-host")
	if err := platform.Chain().Verify(svc.Vendor().RAS().RootCert()); err != nil {
		t.Fatalf("endorsed chain rejected: %v", err)
	}
}

func TestEndorseEmptyKey(t *testing.T) {
	_, ap := startAPService(t)
	if _, err := ap.Endorse(context.Background(), "x", nil); err == nil {
		t.Fatal("empty key endorsed")
	}
}

func TestEndorsedPlatformKeyMismatch(t *testing.T) {
	_, ap := startAPService(t)
	_, pub, err := sev.GenerateVCEK()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ap.Endorse(context.Background(), "host", pub)
	if err != nil {
		t.Fatal(err)
	}
	otherKey, _, _ := sev.GenerateVCEK()
	if _, err := sev.NewEndorsedPlatform("host", chain, otherKey); err == nil {
		t.Fatal("mismatched VCEK accepted")
	}
}

func TestRemoteAttestationFlow(t *testing.T) {
	_, ap := startAPService(t)
	platform := remotePlatform(t, ap, "remote-host")
	cvm, err := platform.LaunchCVM(OVMF)
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.AttestCVM(context.Background(), "agg-remote", platform, cvm); err != nil {
		t.Fatal(err)
	}
	if cvm.State() != sev.StateRunning {
		t.Fatalf("CVM state %v", cvm.State())
	}
	// The node can load the injected token and answer Phase II.
	node, err := NewAggregatorNode("agg-remote", agg.IterativeAverage{}, cvm)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ap.TokenPubKey(context.Background(), "agg-remote")
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := attest.NewNonce()
	sig, err := node.SignChallenge(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.VerifyChallenge(pub, nonce, sig); err != nil {
		t.Fatalf("Phase II failed after remote Phase I: %v", err)
	}
	if _, err := ap.TokenPubKey(context.Background(), "agg-other"); err == nil ||
		!strings.Contains(err.Error(), "not provisioned") {
		t.Fatalf("token for an aggregator never provisioned: %v", err)
	}
}

func TestRemoteAttestationRejectsEvilFirmware(t *testing.T) {
	_, ap := startAPService(t)
	platform := remotePlatform(t, ap, "remote-host")
	evil := append([]byte(nil), OVMF...)
	evil[0] ^= 1
	cvm, _ := platform.LaunchCVM(evil)
	err := ap.AttestCVM(context.Background(), "agg-evil", platform, cvm)
	if err == nil {
		t.Fatal("evil firmware attested")
	}
	if !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if cvm.State() != sev.StateLaunchPaused {
		t.Fatalf("evil CVM state %v", cvm.State())
	}
}

func TestRemoteAttestationRequiresNonce(t *testing.T) {
	_, ap := startAPService(t)
	platform := remotePlatform(t, ap, "remote-host")
	cvm, _ := platform.LaunchCVM(OVMF)
	report, err := platform.AttestCVM(cvm, 0, []byte("self-chosen-nonce-not-from-ap"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ap.C.CallContext(context.Background(), MethodAPAttest, sev.AppendReport(sev.AppendField(nil, "agg-x"), report))
	if err == nil {
		t.Fatal("attestation without AP nonce accepted")
	}
}

func TestBrokerOverRPC(t *testing.T) {
	_, ap := startAPService(t)
	if _, err := ap.PermKey(context.Background(), "ghost"); err == nil {
		t.Fatal("unregistered party served")
	}
	if err := ap.RegisterParty(context.Background(), "P1"); err != nil {
		t.Fatal(err)
	}
	if err := ap.RegisterParty(context.Background(), ""); err == nil {
		t.Fatal("empty party ID accepted")
	}
	k1, err := ap.PermKey(context.Background(), "P1")
	if err != nil || len(k1) != 32 {
		t.Fatalf("perm key: %v, %v", k1, err)
	}
	r1, err := ap.RoundID(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r1again, _ := ap.RoundID(context.Background(), 1)
	if !bytes.Equal(r1, r1again) {
		t.Fatal("round ID unstable")
	}
}

func TestTLSMaterialsSaveLoad(t *testing.T) {
	dir := t.TempDir()
	if err := transport.SaveTLSMaterials(dir, "agg", []string{"127.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	m, err := transport.LoadTLSMaterials(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := m.ListenTLS("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	srv := transport.NewServer()
	srv.Handle("ping", func(body []byte) ([]byte, error) { return body, nil })
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := m.Dial(context.Background(), ln.Addr().String(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	c := transport.NewClient(conn)
	defer c.Close()
	got, err := c.CallContext(context.Background(), "ping", []byte("ok"))
	if err != nil || string(got) != "ok" {
		t.Fatalf("ping over loaded TLS: %v, %v", got, err)
	}
	if _, err := transport.LoadTLSMaterials(t.TempDir()); err == nil {
		t.Fatal("empty dir loaded")
	}
}

func TestDialAggregatorsEmpty(t *testing.T) {
	out, err := DialAggregators(context.Background(), nil, "", "name")
	if err != nil || len(out) != 0 {
		t.Fatalf("empty spec: %v, %v", out, err)
	}
}

func TestDialAggregatorsBadEntry(t *testing.T) {
	if _, err := DialAggregators(context.Background(), nil, "no-equals-sign", "name"); err == nil {
		t.Fatal("malformed entry accepted")
	}
}
