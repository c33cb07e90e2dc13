package sev

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
)

// This file supports multi-process deployments: a platform's VCEK key pair
// is generated where the platform runs, and the vendor (reachable over RPC
// in cmd/deta-ap) endorses the public half — simulating the
// manufacturing-time key provisioning of real SEV hardware.

// GenerateVCEK creates a fresh platform endorsement key pair, returning the
// private key and its PKIX-marshaled public half to send to the vendor.
// The vendor's own ARK and ASK pairs are made the same way.
func GenerateVCEK() (*ecdsa.PrivateKey, []byte, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	pub, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, nil, err
	}
	return key, pub, nil
}

// Endorse signs a platform's VCEK public key into a full certificate chain,
// playing AMD's manufacturing/endorsement role.
func (v *Vendor) Endorse(platformName string, vcekPub []byte) (CertChain, error) {
	if len(vcekPub) == 0 {
		return CertChain{}, errors.New("sev: empty VCEK public key")
	}
	vcek, err := signCert("VCEK/"+platformName, vcekPub, v.askKey)
	if err != nil {
		return CertChain{}, err
	}
	return CertChain{ARK: v.ark, ASK: v.ask, VCEK: vcek}, nil
}

// NewEndorsedPlatform assembles a platform from a locally generated VCEK
// private key and the vendor-endorsed chain for its public half.
func NewEndorsedPlatform(name string, chain CertChain, vcekKey *ecdsa.PrivateKey) (*Platform, error) {
	pub, err := x509.MarshalPKIXPublicKey(&vcekKey.PublicKey)
	if err != nil {
		return nil, err
	}
	if string(pub) != string(chain.VCEK.PubKey) {
		return nil, errors.New("sev: chain does not endorse this VCEK key")
	}
	return &Platform{
		Name:    name,
		chain:   chain,
		vcekKey: vcekKey,
		cvms:    make(map[int]*CVM),
	}, nil
}
