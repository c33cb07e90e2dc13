// Package sev is a software simulation of the AMD SEV confidential-
// computing platform, faithful to the interfaces DeTA's protocol consumes
// (DESIGN.md §2): an AMD-rooted certificate chain (ARK -> ASK -> VCEK), an
// OVMF launch measurement, a pausable CVM launch flow with secret injection
// into encrypted guest memory, signed attestation reports, and a remote
// attestation service (RAS) that distributes the vendor root certificate.
//
// The simulation deliberately reproduces SEV's failure modes too: reports
// from tampered firmware carry the wrong measurement, chains not rooted in
// the RAS root fail verification, and secrets injected into a CVM are
// visible to the "hypervisor" only as ciphertext.
package sev

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"
)

// Cert is a minimal certificate: a subject, a marshaled ECDSA public key,
// and the parent's signature over both. (A deliberate reduction of the SEV
// cert format; the verification logic is the same chain walk.)
type Cert struct {
	Subject string
	PubKey  []byte // PKIX-marshaled ECDSA P-256 public key
	Sig     []byte // ASN.1 ECDSA signature by the parent key
}

func (c Cert) digest() []byte {
	h := sha256.New()
	h.Write([]byte(c.Subject))
	h.Write([]byte{0})
	h.Write(c.PubKey)
	return h.Sum(nil)
}

// PublicKey unmarshals the certificate's key.
func (c Cert) PublicKey() (*ecdsa.PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(c.PubKey)
	if err != nil {
		return nil, fmt.Errorf("sev: parse %s key: %w", c.Subject, err)
	}
	pk, ok := k.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("sev: %s key is not ECDSA", c.Subject)
	}
	return pk, nil
}

// CertChain is the SEV endorsement chain: the AMD Root Key signs the AMD
// SEV Signing Key, which signs the chip's Versioned Chip Endorsement Key.
type CertChain struct {
	ARK  Cert
	ASK  Cert
	VCEK Cert
}

// Verify walks the chain and confirms it is rooted in trustedRoot (the ARK
// distributed by the RAS).
func (ch CertChain) Verify(trustedRoot Cert) error {
	if string(ch.ARK.PubKey) != string(trustedRoot.PubKey) {
		return errors.New("sev: ARK does not match trusted AMD root")
	}
	arkKey, err := ch.ARK.PublicKey()
	if err != nil {
		return err
	}
	// ARK is self-signed.
	if !ecdsa.VerifyASN1(arkKey, ch.ARK.digest(), ch.ARK.Sig) {
		return errors.New("sev: ARK self-signature invalid")
	}
	if !ecdsa.VerifyASN1(arkKey, ch.ASK.digest(), ch.ASK.Sig) {
		return errors.New("sev: ASK not signed by ARK")
	}
	askKey, err := ch.ASK.PublicKey()
	if err != nil {
		return err
	}
	if !ecdsa.VerifyASN1(askKey, ch.VCEK.digest(), ch.VCEK.Sig) {
		return errors.New("sev: VCEK not signed by ASK")
	}
	return nil
}

// Platform simulates one SEV-capable host: its secure processor holds the
// endorsement chain's private VCEK and manages CVMs and their memory
// encryption keys.
type Platform struct {
	Name string

	chain   CertChain
	vcekKey *ecdsa.PrivateKey

	mu     sync.Mutex
	nextID int
	cvms   map[int]*CVM
}

// NewPlatform manufactures a platform whose chain is rooted at the given
// vendor. In production the ARK/ASK live at AMD; here the Vendor value
// plays that role.
func NewPlatform(name string, vendor *Vendor) (*Platform, error) {
	vcekKey, vcekPub, err := GenerateVCEK()
	if err != nil {
		return nil, err
	}
	chain, err := vendor.Endorse(name, vcekPub)
	if err != nil {
		return nil, err
	}
	return NewEndorsedPlatform(name, chain, vcekKey)
}

// Chain returns the platform's endorsement certificate chain.
func (p *Platform) Chain() CertChain { return p.chain }

// Vendor simulates the CPU vendor's key infrastructure (AMD): the root ARK
// and intermediate ASK used to endorse platforms, and the RAS that
// distributes the root certificate.
type Vendor struct {
	ark    Cert
	ask    Cert
	arkKey *ecdsa.PrivateKey
	askKey *ecdsa.PrivateKey
}

// NewVendor generates a fresh vendor key hierarchy.
func NewVendor() (*Vendor, error) {
	arkKey, arkPub, err := GenerateVCEK()
	if err != nil {
		return nil, err
	}
	ark, err := signCert("ARK", arkPub, arkKey)
	if err != nil {
		return nil, err
	}
	askKey, askPub, err := GenerateVCEK()
	if err != nil {
		return nil, err
	}
	ask, err := signCert("ASK", askPub, arkKey)
	if err != nil {
		return nil, err
	}
	return &Vendor{ark: ark, ask: ask, arkKey: arkKey, askKey: askKey}, nil
}

// signCert issues the certificate for subject's public key, signed by
// parent: ARK by itself, ASK by ARK, and each VCEK by ASK.
func signCert(subject string, pub []byte, parent *ecdsa.PrivateKey) (Cert, error) {
	c := Cert{Subject: subject, PubKey: pub}
	sig, err := ecdsa.SignASN1(rand.Reader, parent, c.digest())
	if err != nil {
		return Cert{}, err
	}
	c.Sig = sig
	return c, nil
}

// RAS is the vendor's remote attestation service: the trusted distribution
// point for the root certificate (step 1 of the paper's Figure 1).
type RAS struct {
	root Cert
}

// RAS returns the vendor's attestation service.
func (v *Vendor) RAS() *RAS { return &RAS{root: v.ark} }

// RootCert returns the trusted AMD root certificate.
func (r *RAS) RootCert() Cert { return r.root }

// newVEK generates a fresh VM encryption key and AEAD for a CVM's memory.
func newVEK() (cipher.AEAD, []byte, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	return aead, key, nil
}
