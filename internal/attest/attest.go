// Package attest implements DeTA's two-phase authentication protocol
// (paper §4.3) on top of the simulated SEV platform:
//
//   - Phase I ("Launching Trustworthy Aggregators"): the attestation proxy
//     (AP), controlled by the parties, verifies each aggregator CVM's
//     attestation report (certificate chain + OVMF launch measurement)
//     against the vendor's RAS root, then provisions an ECDSA P-256
//     authentication token into the paused CVM's encrypted memory and
//     resumes the launch.
//
//   - Phase II ("Multi-Aggregator Authentication"): before registering,
//     each party challenges every aggregator with a fresh nonce; the
//     aggregator signs it with the token from its encrypted memory, and the
//     party verifies the signature against the token public key the AP
//     recorded at launch.
//
// The package also hosts the key-broker service that dispatches the shared
// permutation key and per-round training identifiers to parties (paper
// §4.2).
package attest

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"

	"deta/internal/sev"
)

// Errors returned by the authentication protocol.
var (
	ErrUnknownAggregator = errors.New("attest: aggregator not provisioned by this proxy")
	ErrBadChallenge      = errors.New("attest: challenge-response signature invalid")
	ErrShortNonce        = errors.New("attest: nonce too short (min 16 bytes)")
)

// Proxy is the attestation proxy: it holds the trusted vendor root (pulled
// from the RAS), the expected OVMF measurement, and the registry of token
// public keys for every aggregator it has provisioned.
type Proxy struct {
	root        sev.Cert
	measurement [32]byte

	mu     sync.Mutex
	tokens map[string][]byte // aggregator ID -> PKIX token public key
}

// NewProxy builds an AP trusting the given RAS root and expecting
// aggregator CVMs to boot the firmware with the given measurement.
func NewProxy(ras *sev.RAS, expectedOVMF []byte) *Proxy {
	return &Proxy{
		root:        ras.RootCert(),
		measurement: sev.Measure(expectedOVMF),
		tokens:      make(map[string][]byte),
	}
}

// ProvisionResult reports a successful Phase I launch.
type ProvisionResult struct {
	AggregatorID string
	TokenPubKey  []byte // PKIX-marshaled ECDSA public key
}

// VerifyAndIssueToken is the AP's core Phase I step, usable both locally
// and behind an RPC boundary: it verifies the attestation report against
// the trusted root, the expected measurement, and the challenge nonce;
// on success it mints a fresh ECDSA authentication token, records its
// public key under aggregatorID, and returns the serialized private key
// (the launch blob to inject into the CVM). The sev.VerifyReport call is
// the only step specific to the CC technology: the token, and Phase II
// after it, would be the same for any other (paper §5).
func (p *Proxy) VerifyAndIssueToken(aggregatorID string, report *sev.AttestationReport, nonce []byte) ([]byte, error) {
	if err := sev.VerifyReport(report, p.root, p.measurement, nonce); err != nil {
		return nil, fmt.Errorf("attest: report verification failed: %w", err)
	}
	// The paper packages an ECDSA prime256v1 key in the launch blob.
	tokenKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	priv, err := x509.MarshalECPrivateKey(tokenKey)
	if err != nil {
		return nil, err
	}
	pub, err := x509.MarshalPKIXPublicKey(&tokenKey.PublicKey)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.tokens[aggregatorID] = pub
	p.mu.Unlock()
	return priv, nil
}

// Provision performs Phase I for one aggregator CVM hosted in-process: it
// attests the paused CVM, and on success injects a fresh ECDSA
// authentication token and resumes the launch. The token public key is
// recorded under aggregatorID.
func (p *Proxy) Provision(aggregatorID string, platform *sev.Platform, cvm *sev.CVM) (*ProvisionResult, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	report, err := platform.AttestCVM(cvm, 0, nonce)
	if err != nil {
		return nil, fmt.Errorf("attest: obtaining report: %w", err)
	}
	blob, err := p.VerifyAndIssueToken(aggregatorID, report, nonce)
	if err != nil {
		return nil, err
	}
	if err := cvm.InjectLaunchSecret(blob); err != nil {
		p.forget(aggregatorID)
		return nil, fmt.Errorf("attest: secret injection: %w", err)
	}
	if err := cvm.Resume(); err != nil {
		p.forget(aggregatorID)
		return nil, fmt.Errorf("attest: resume: %w", err)
	}
	pub, err := p.TokenPubKey(aggregatorID)
	if err != nil {
		return nil, err
	}
	return &ProvisionResult{AggregatorID: aggregatorID, TokenPubKey: pub}, nil
}

func (p *Proxy) forget(aggregatorID string) {
	p.mu.Lock()
	delete(p.tokens, aggregatorID)
	p.mu.Unlock()
}

// TokenPubKey returns the provisioned token public key for an aggregator,
// which parties fetch before running Phase II.
func (p *Proxy) TokenPubKey(aggregatorID string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pub, ok := p.tokens[aggregatorID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAggregator, aggregatorID)
	}
	return pub, nil
}

// Token is the aggregator-side authentication token, reconstructed from the
// CVM's injected launch secret.
type Token struct {
	key *ecdsa.PrivateKey
}

// LoadToken parses the launch secret read from inside the CVM.
func LoadToken(secret []byte) (*Token, error) {
	key, err := x509.ParseECPrivateKey(secret)
	if err != nil {
		return nil, fmt.Errorf("attest: parsing token: %w", err)
	}
	return &Token{key: key}, nil
}

// SignChallenge signs a party's nonce, proving possession of the
// provisioned token.
func (t *Token) SignChallenge(nonce []byte) ([]byte, error) {
	if len(nonce) < 16 {
		return nil, ErrShortNonce
	}
	digest := sha256.Sum256(nonce)
	return ecdsa.SignASN1(rand.Reader, t.key, digest[:])
}

// NewNonce creates a fresh 32-byte challenge nonce.
func NewNonce() ([]byte, error) {
	n := make([]byte, 32)
	if _, err := rand.Read(n); err != nil {
		return nil, err
	}
	return n, nil
}

// VerifyChallenge is the party-side Phase II check: the signature over the
// nonce must verify under the token public key recorded by the AP.
func VerifyChallenge(tokenPubKey, nonce, sig []byte) error {
	if len(nonce) < 16 {
		return ErrShortNonce
	}
	k, err := x509.ParsePKIXPublicKey(tokenPubKey)
	if err != nil {
		return fmt.Errorf("attest: parsing token public key: %w", err)
	}
	pub, ok := k.(*ecdsa.PublicKey)
	if !ok {
		return errors.New("attest: token public key is not ECDSA")
	}
	digest := sha256.Sum256(nonce)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return ErrBadChallenge
	}
	return nil
}
