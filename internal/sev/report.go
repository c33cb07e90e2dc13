package sev

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"errors"
)

// AttestationReport is the signed evidence a CVM's platform produces: the
// launch measurement, a caller-chosen nonce binding (ReportData), a policy
// word, and the endorsement chain, all signed by the platform's VCEK.
type AttestationReport struct {
	PlatformName string
	ASID         int
	Measurement  [32]byte
	Policy       uint64
	ReportData   []byte // verifier-supplied nonce, replay protection
	Chain        CertChain
	Signature    []byte
}

// digest is what the VCEK signs: the report's encoding up to its Signature
// field (wire.go), which binds the whole endorsement chain with it.
func (r *AttestationReport) digest() []byte {
	d := sha256.Sum256(appendReportBody(nil, r))
	return d[:]
}

// AttestCVM asks the platform's secure processor to produce a signed
// attestation report for the given CVM, binding reportData (the verifier's
// nonce). Legal in the paused and running states.
func (p *Platform) AttestCVM(cvm *CVM, policy uint64, reportData []byte) (*AttestationReport, error) {
	cvm.mu.Lock()
	state := cvm.state
	meas := cvm.measurement
	cvm.mu.Unlock()
	if state != StateLaunchPaused && state != StateRunning {
		return nil, ErrBadState
	}
	r := &AttestationReport{
		PlatformName: p.Name,
		ASID:         cvm.ASID,
		Measurement:  meas,
		Policy:       policy,
		ReportData:   append([]byte(nil), reportData...),
		Chain:        p.chain,
	}
	sig, err := ecdsa.SignASN1(rand.Reader, p.vcekKey, r.digest())
	if err != nil {
		return nil, err
	}
	r.Signature = sig
	return r, nil
}

// Report verification errors.
var (
	ErrBadSignature   = errors.New("sev: attestation report signature invalid")
	ErrBadMeasurement = errors.New("sev: launch measurement mismatch")
	ErrBadNonce       = errors.New("sev: report data does not match expected nonce")
)

// VerifyReport checks a report end to end: certificate chain rooted in the
// trusted ARK, VCEK signature over the report body, expected launch
// measurement, and nonce binding. This is the verification the paper's
// attestation proxy performs in Phase I.
func VerifyReport(r *AttestationReport, trustedRoot Cert, wantMeasurement [32]byte, wantNonce []byte) error {
	if r == nil {
		return errors.New("sev: nil report")
	}
	if err := r.Chain.Verify(trustedRoot); err != nil {
		return err
	}
	vcekKey, err := r.Chain.VCEK.PublicKey()
	if err != nil {
		return err
	}
	if !ecdsa.VerifyASN1(vcekKey, r.digest(), r.Signature) {
		return ErrBadSignature
	}
	if r.Measurement != wantMeasurement {
		return ErrBadMeasurement
	}
	if string(r.ReportData) != string(wantNonce) {
		return ErrBadNonce
	}
	return nil
}
