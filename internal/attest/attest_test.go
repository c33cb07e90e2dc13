package attest

import (
	"bytes"
	"errors"
	"testing"

	"deta/internal/sev"
)

var ovmf = []byte("deta aggregator firmware build 42")

func setup(t *testing.T) (*sev.Vendor, *sev.Platform, *Proxy) {
	t.Helper()
	v, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sev.NewPlatform("host-a", v)
	if err != nil {
		t.Fatal(err)
	}
	return v, p, NewProxy(v.RAS(), ovmf)
}

// provisionOne runs Phase I for one aggregator and returns the CVM plus
// the aggregator-side token.
func provisionOne(t *testing.T, platform *sev.Platform, ap *Proxy, id string) (*sev.CVM, *Token) {
	t.Helper()
	cvm, err := platform.LaunchCVM(ovmf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Provision(id, platform, cvm); err != nil {
		t.Fatal(err)
	}
	secret, err := cvm.GuestReadSecret()
	if err != nil {
		t.Fatal(err)
	}
	tok, err := LoadToken(secret)
	if err != nil {
		t.Fatal(err)
	}
	return cvm, tok
}

func TestPhaseIProvisionsAndResumes(t *testing.T) {
	_, platform, ap := setup(t)
	cvm, _ := provisionOne(t, platform, ap, "agg-1")
	if cvm.State() != sev.StateRunning {
		t.Fatalf("CVM state = %v after provisioning", cvm.State())
	}
	pub, err := ap.TokenPubKey("agg-1")
	if err != nil || len(pub) == 0 {
		t.Fatalf("token pub key: %v", err)
	}
	if _, err := ap.TokenPubKey("agg-2"); !errors.Is(err, ErrUnknownAggregator) {
		t.Fatalf("token for an aggregator never provisioned: %v", err)
	}
}

func TestPhaseIRejectsTamperedFirmware(t *testing.T) {
	_, platform, ap := setup(t)
	evil := append([]byte(nil), ovmf...)
	evil[3] ^= 1
	cvm, err := platform.LaunchCVM(evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Provision("agg-evil", platform, cvm); err == nil {
		t.Fatal("tampered aggregator provisioned")
	}
	// The CVM must still be paused: no secret, no resume.
	if cvm.State() != sev.StateLaunchPaused {
		t.Fatalf("evil CVM state = %v", cvm.State())
	}
	if _, err := ap.TokenPubKey("agg-evil"); !errors.Is(err, ErrUnknownAggregator) {
		t.Fatalf("token registered for rejected aggregator: %v", err)
	}

	// Evidence that is no report for this nonce — none at all, or a
	// genuine CVM's report over another nonce — is refused the same way.
	good, err := platform.LaunchCVM(ovmf)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := NewNonce()
	other, _ := NewNonce()
	report, err := platform.AttestCVM(good, 0, other)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		report *sev.AttestationReport
	}{{"no report", nil}, {"a report over another nonce", report}} {
		if _, err := ap.VerifyAndIssueToken("agg-x", c.report, nonce); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if _, err := ap.TokenPubKey("agg-x"); !errors.Is(err, ErrUnknownAggregator) {
			t.Fatalf("token registered for %s: %v", c.name, err)
		}
	}
}

func TestPhaseIRejectsForeignPlatform(t *testing.T) {
	_, _, ap := setup(t)
	otherVendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := sev.NewPlatform("rogue-host", otherVendor)
	if err != nil {
		t.Fatal(err)
	}
	cvm, _ := foreign.LaunchCVM(ovmf)
	if _, err := ap.Provision("agg-rogue", foreign, cvm); err == nil {
		t.Fatal("aggregator on unendorsed platform provisioned")
	}
}

func TestPhaseIIChallengeResponse(t *testing.T) {
	_, platform, ap := setup(t)
	_, tok := provisionOne(t, platform, ap, "agg-1")

	pub, _ := ap.TokenPubKey("agg-1")
	nonce, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := tok.SignChallenge(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChallenge(pub, nonce, sig); err != nil {
		t.Fatalf("genuine challenge rejected: %v", err)
	}
}

func TestPhaseIIRejectsWrongToken(t *testing.T) {
	_, platform, ap := setup(t)
	_, tok1 := provisionOne(t, platform, ap, "agg-1")
	provisionOne(t, platform, ap, "agg-2")

	// agg-1's token must not verify under agg-2's public key (a breached
	// aggregator cannot impersonate another).
	pub2, _ := ap.TokenPubKey("agg-2")
	nonce, _ := NewNonce()
	sig, _ := tok1.SignChallenge(nonce)
	if err := VerifyChallenge(pub2, nonce, sig); !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("cross-aggregator signature accepted: %v", err)
	}
}

func TestPhaseIIRejectsTamperedNonce(t *testing.T) {
	_, platform, ap := setup(t)
	_, tok := provisionOne(t, platform, ap, "agg-1")
	pub, _ := ap.TokenPubKey("agg-1")
	nonce, _ := NewNonce()
	sig, _ := tok.SignChallenge(nonce)
	other := append([]byte(nil), nonce...)
	other[0] ^= 1
	if err := VerifyChallenge(pub, other, sig); !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("signature over different nonce accepted: %v", err)
	}
}

func TestShortNonceRejected(t *testing.T) {
	_, platform, ap := setup(t)
	_, tok := provisionOne(t, platform, ap, "agg-1")
	if _, err := tok.SignChallenge([]byte("tiny")); !errors.Is(err, ErrShortNonce) {
		t.Fatalf("short nonce signed: %v", err)
	}
	pub, _ := ap.TokenPubKey("agg-1")
	if err := VerifyChallenge(pub, []byte("tiny"), nil); !errors.Is(err, ErrShortNonce) {
		t.Fatalf("short nonce verified: %v", err)
	}
}

func TestLoadTokenGarbage(t *testing.T) {
	if _, err := LoadToken([]byte("not a key")); err == nil {
		t.Fatal("garbage secret parsed as token")
	}
}

func TestVerifyChallengeGarbageKey(t *testing.T) {
	nonce, _ := NewNonce()
	if err := VerifyChallenge([]byte("junk"), nonce, []byte("sig")); err == nil {
		t.Fatal("garbage public key accepted")
	}
}

func TestTokensDifferPerAggregator(t *testing.T) {
	_, platform, ap := setup(t)
	provisionOne(t, platform, ap, "agg-1")
	provisionOne(t, platform, ap, "agg-2")
	p1, _ := ap.TokenPubKey("agg-1")
	p2, _ := ap.TokenPubKey("agg-2")
	if bytes.Equal(p1, p2) {
		t.Fatal("two aggregators share one token")
	}
}

func TestKeyBroker(t *testing.T) {
	b, err := NewKeyBroker(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKeyBroker(4); err == nil {
		t.Fatal("tiny permutation key accepted")
	}
	// Unregistered parties get nothing.
	if _, err := b.PermutationKey("p1"); !errors.Is(err, ErrUnregisteredParty) {
		t.Fatalf("unregistered party served: %v", err)
	}
	b.RegisterParty("p1")
	b.RegisterParty("p2")
	k1, err := b.PermutationKey("p1")
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := b.PermutationKey("p2")
	if !bytes.Equal(k1, k2) {
		t.Fatal("parties received different permutation keys")
	}
	// Round IDs: stable within a round, distinct across rounds.
	r1a, _ := b.RoundID(1)
	r1b, _ := b.RoundID(1)
	r2, _ := b.RoundID(2)
	if !bytes.Equal(r1a, r1b) {
		t.Fatal("round ID changed within a round")
	}
	if bytes.Equal(r1a, r2) {
		t.Fatal("round IDs repeat across rounds")
	}
}
