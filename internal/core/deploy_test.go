package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/sev"
	"deta/internal/transport"
)

// endorsedHost serves an in-process AP until the test ends and returns a
// client on it plus a platform its vendor endorsed, for the tests that
// launch a CVM BootAggregatorCVM would not: evil firmware, a self-chosen
// nonce.
func endorsedHost(t *testing.T) (*APClient, *sev.Platform) {
	t.Helper()
	svc, ap, stop, err := ServeAP()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	platform, err := sev.NewPlatform("remote-host", svc.Vendor())
	if err != nil {
		t.Fatal(err)
	}
	return ap, platform
}

func TestRemoteEndorsementChainVerifies(t *testing.T) {
	svc, ap, stop, err := ServeAP()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, pub, err := sev.GenerateVCEK()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ap.Endorse(context.Background(), "remote-host", pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Verify(svc.Vendor().RAS().RootCert()); err != nil {
		t.Fatalf("endorsed chain rejected: %v", err)
	}
}

func TestEndorseEmptyKey(t *testing.T) {
	ap := testAP(t)
	if _, err := ap.Endorse(context.Background(), "x", nil); err == nil {
		t.Fatal("empty key endorsed")
	}
}

func TestEndorsedPlatformKeyMismatch(t *testing.T) {
	ap := testAP(t)
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
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-remote")
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
	ap, platform := endorsedHost(t)
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
	ap, platform := endorsedHost(t)
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
	ap := testAP(t)
	if _, err := ap.PermKey(context.Background(), "ghost"); !errors.Is(err, attest.ErrUnregisteredParty) {
		t.Fatalf("unregistered party: %v, want ErrUnregisteredParty", err)
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
