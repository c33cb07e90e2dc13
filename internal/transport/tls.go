package transport

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"net"
	"time"
)

// TLSMaterials bundles a private certificate authority with a server
// certificate issued under it, ready to build the TLS channels the paper
// uses between parties and aggregators after Phase II registration.
type TLSMaterials struct {
	CAPEMPool  *x509.CertPool
	ServerCert tls.Certificate
}

// NewTLSMaterials mints a fresh CA and a server certificate valid for the
// given DNS names and loopback IPs.
func NewTLSMaterials(commonName string, hosts []string) (*TLSMaterials, error) {
	caKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	caTpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "deta-ca"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour * 365),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTpl, caTpl, &caKey.PublicKey, caKey)
	if err != nil {
		return nil, err
	}
	caCert, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, err
	}

	srvKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	srvTpl := &x509.Certificate{
		SerialNumber: big.NewInt(2),
		Subject:      pkix.Name{CommonName: commonName},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour * 365),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			srvTpl.IPAddresses = append(srvTpl.IPAddresses, ip)
		} else {
			srvTpl.DNSNames = append(srvTpl.DNSNames, h)
		}
	}
	srvDER, err := x509.CreateCertificate(rand.Reader, srvTpl, caCert, &srvKey.PublicKey, caKey)
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	pool.AddCert(caCert)
	return &TLSMaterials{
		CAPEMPool: pool,
		ServerCert: tls.Certificate{
			Certificate: [][]byte{srvDER},
			PrivateKey:  srvKey,
		},
	}, nil
}

// ServerConfig returns a TLS config for the aggregator side.
func (m *TLSMaterials) ServerConfig() *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{m.ServerCert},
		MinVersion:   tls.VersionTLS13,
	}
}

// ClientConfig returns a TLS config for the party side, trusting only the
// minted CA and pinning the expected server name.
func (m *TLSMaterials) ClientConfig(serverName string) *tls.Config {
	return &tls.Config{
		RootCAs:    m.CAPEMPool,
		ServerName: serverName,
		MinVersion: tls.VersionTLS13,
	}
}

// ListenTLS opens a TLS listener on addr ("127.0.0.1:0" for an ephemeral
// port).
func (m *TLSMaterials) ListenTLS(addr string) (net.Listener, error) {
	return tls.Listen("tcp", addr, m.ServerConfig())
}
