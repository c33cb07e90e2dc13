package transport

import (
	"crypto/ecdsa"
	"crypto/tls"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// On-disk TLS material support for multi-process deployments: the AP mints
// a CA and server credentials once and writes them to a directory; the
// aggregator and party binaries load them at startup.

const (
	caFile   = "ca.pem"
	certFile = "server-cert.pem"
	keyFile  = "server-key.pem"
)

// SaveTLSMaterials mints fresh materials for the given hosts and writes
// ca.pem, server-cert.pem, server-key.pem into dir (created if needed).
// The CA private key is intentionally not persisted.
func SaveTLSMaterials(dir, commonName string, hosts []string) error {
	m, caDER, err := mintMaterials(commonName, hosts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	write := func(name, blockType string, der []byte) error {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			return err
		}
		defer f.Close()
		return pem.Encode(f, &pem.Block{Type: blockType, Bytes: der})
	}
	if err := write(caFile, "CERTIFICATE", caDER); err != nil {
		return err
	}
	if err := write(certFile, "CERTIFICATE", m.ServerCert.Certificate[0]); err != nil {
		return err
	}
	keyDER, err := x509.MarshalECPrivateKey(m.ServerCert.PrivateKey.(*ecdsa.PrivateKey))
	if err != nil {
		return err
	}
	return write(keyFile, "EC PRIVATE KEY", keyDER)
}

// LoadTLSMaterials reads materials written by SaveTLSMaterials.
func LoadTLSMaterials(dir string) (*TLSMaterials, error) {
	caPEM, err := os.ReadFile(filepath.Join(dir, caFile))
	if err != nil {
		return nil, fmt.Errorf("transport: reading CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(caPEM) {
		return nil, errors.New("transport: no certificates in " + caFile)
	}
	certPEM, err := os.ReadFile(filepath.Join(dir, certFile))
	if err != nil {
		return nil, err
	}
	keyPEM, err := os.ReadFile(filepath.Join(dir, keyFile))
	if err != nil {
		return nil, err
	}
	cert, err := tls.X509KeyPair(certPEM, keyPEM)
	if err != nil {
		return nil, fmt.Errorf("transport: parsing server key pair: %w", err)
	}
	return &TLSMaterials{CAPEMPool: pool, ServerCert: cert}, nil
}
