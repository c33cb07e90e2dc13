package sev

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// wire.go: the one byte layout of the structures the control plane sends, a
// certificate chain (ap.Endorse's response) and an attestation report
// (ap.Attest's request). The layout is also what is signed: a certificate's
// signature covers its encoding up to the Sig field, and a report's its
// encoding up to the Signature field, the way SEV-SNP signs its fixed report
// layout, so the format is written once.
//
// Every variable-length field is a u32 length and then its bytes; integers
// are little-endian, like the fragment codec. In order:
//
//	Cert               Subject, PubKey, Sig (a field each)
//	CertChain          ARK, ASK, VCEK (a Cert each)
//	AttestationReport  PlatformName field, ASID u64, Measurement 32 bytes,
//	                   Policy u64, ReportData field, Chain, Signature field
//
// A decoder checks every length against the bytes present before it copies,
// refuses trailing bytes, and copies every field out, so nothing it returns
// aliases the body. A field too long for its u32 length cannot be sent:
// transport refuses any frame over its MaxFrame, far below 4 GiB.

// AppendField appends b to dst behind its u32 length. It is the building
// block of this file's layouts, exported for the control-plane requests
// that carry an ID field ahead of their payload.
func AppendField[T ~string | ~[]byte](dst []byte, b T) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(b))), b...)
}

// CutField splits the field AppendField wrote off the front of data. field
// and rest alias data.
func CutField(data []byte) (field, rest []byte, err error) {
	r := wireReader{data: data}
	field = r.field()
	return field, r.data, r.err
}

// AppendChain appends ch's encoding to dst.
func AppendChain(dst []byte, ch CertChain) []byte {
	for _, c := range [...]Cert{ch.ARK, ch.ASK, ch.VCEK} {
		dst = AppendField(appendCertBody(dst, c), c.Sig)
	}
	return dst
}

// DecodeChain parses a chain AppendChain wrote, and nothing after it.
func DecodeChain(data []byte) (ch CertChain, err error) {
	r := wireReader{data: data}
	r.chain(&ch)
	return ch, r.end()
}

// AppendReport appends r's encoding to dst.
func AppendReport(dst []byte, r *AttestationReport) []byte {
	return AppendField(appendReportBody(dst, r), r.Signature)
}

// DecodeReport parses a report AppendReport wrote, and nothing after it.
func DecodeReport(data []byte) (*AttestationReport, error) {
	r := wireReader{data: data}
	rep := &AttestationReport{PlatformName: string(r.field()), ASID: int(r.num(8))}
	copy(rep.Measurement[:], r.take(uint64(len(rep.Measurement))))
	rep.Policy = r.num(8)
	rep.ReportData = r.bytes()
	r.chain(&rep.Chain)
	rep.Signature = r.bytes()
	return rep, r.end()
}

// appendCertBody appends the signed part of c's encoding.
func appendCertBody(dst []byte, c Cert) []byte {
	return AppendField(AppendField(dst, c.Subject), c.PubKey)
}

// appendReportBody appends the signed part of r's encoding.
func appendReportBody(dst []byte, r *AttestationReport) []byte {
	dst = AppendField(dst, r.PlatformName)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ASID))
	dst = append(dst, r.Measurement[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, r.Policy)
	dst = AppendField(dst, r.ReportData)
	return AppendChain(dst, r.Chain)
}

// wireReader walks an encoding front to back. The first error sticks, and
// every read after it returns nil or zero.
type wireReader struct {
	data []byte
	err  error
}

// take returns the next n bytes, aliasing data.
func (r *wireReader) take(n uint64) (b []byte) {
	if r.err == nil && n > uint64(len(r.data)) {
		r.err = fmt.Errorf("sev: %d-byte field overruns the %d bytes left", n, len(r.data))
	}
	if r.err != nil {
		return nil
	}
	b, r.data = r.data[:n], r.data[n:]
	return b
}

// num reads an n-byte little-endian integer.
func (r *wireReader) num(n uint64) (v uint64) {
	for i, b := range r.take(n) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// field returns the next length-prefixed field, aliasing data.
func (r *wireReader) field() []byte { return r.take(r.num(4)) }

// bytes returns a copy of the next field.
func (r *wireReader) bytes() []byte { return bytes.Clone(r.field()) }

func (r *wireReader) chain(ch *CertChain) {
	for _, c := range [...]*Cert{&ch.ARK, &ch.ASK, &ch.VCEK} {
		*c = Cert{Subject: string(r.field()), PubKey: r.bytes(), Sig: r.bytes()}
	}
}

// end returns the first error, or one for bytes left over.
func (r *wireReader) end() error {
	if r.err == nil && len(r.data) != 0 {
		r.err = fmt.Errorf("sev: %d trailing bytes", len(r.data))
	}
	return r.err
}
