package transport

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSaveLoadTLSMaterials(t *testing.T) {
	dir := t.TempDir()
	if err := SaveTLSMaterials(dir, "agg-test", []string{"127.0.0.1", "agg.example"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"ca.pem", "server-cert.pem", "server-key.pem"} {
		info, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s missing: %v", f, err)
		}
		if info.Mode().Perm() != 0o600 {
			t.Errorf("%s has permissions %v, want 0600", f, info.Mode().Perm())
		}
	}
	m, err := LoadTLSMaterials(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.CAPEMPool == nil || len(m.ServerCert.Certificate) == 0 {
		t.Fatal("loaded materials incomplete")
	}
	// Server and client configs assemble.
	if m.ServerConfig().MinVersion == 0 || m.ClientConfig("agg.example").ServerName != "agg.example" {
		t.Fatal("config assembly broken")
	}
}

// queuedConn hands its writes to a goroutine, so a writer never waits
// for its peer to read. net.Pipe has no buffer: a client that rejects the
// server's certificate writes its alert while the server is still writing
// the rest of its flight, and both would block.
type queuedConn struct {
	net.Conn
	q chan []byte
}

func newQueuedConn(c net.Conn) *queuedConn {
	qc := &queuedConn{Conn: c, q: make(chan []byte, 64)}
	go func() {
		for b := range qc.q {
			c.Write(b)
		}
	}()
	return qc
}

func (qc *queuedConn) Write(b []byte) (int, error) {
	qc.q <- append([]byte(nil), b...)
	return len(b), nil
}

func (qc *queuedConn) Close() error {
	close(qc.q)
	return qc.Conn.Close()
}

// handshake runs a TLS 1.3 handshake over net.Pipe between m's server
// config and a client that expects serverName, returning the client's error.
func handshake(t *testing.T, m *TLSMaterials, serverName string) error {
	t.Helper()
	cConn, sConn := net.Pipe()
	srv := newQueuedConn(sConn)
	defer srv.Close()
	defer cConn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- tls.Server(srv, m.ServerConfig()).HandshakeContext(ctx) }()
	cli := tls.Client(cConn, m.ClientConfig(serverName))
	err := cli.HandshakeContext(ctx)
	if err == nil && cli.ConnectionState().Version != tls.VersionTLS13 {
		t.Errorf("%s: negotiated version %x, want TLS 1.3", serverName, cli.ConnectionState().Version)
	}
	<-done
	return err
}

// TestTLSHandshakeHostsBothPaths pins the SAN split of the minting path:
// an IP host lands in the IP SANs and a name in the DNS SANs, on the
// in-memory materials and on the saved-then-loaded ones alike.
func TestTLSHandshakeHostsBothPaths(t *testing.T) {
	hosts := []string{"127.0.0.1", "agg.example"}
	minted, err := NewTLSMaterials("agg", hosts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveTLSMaterials(dir, "agg", hosts); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTLSMaterials(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *TLSMaterials
	}{{"minted", minted}, {"loaded", loaded}} {
		for _, h := range hosts {
			if err := handshake(t, tc.m, h); err != nil {
				t.Errorf("%s: handshake as %s: %v", tc.name, h, err)
			}
		}
		err := handshake(t, tc.m, "other.example")
		var verr *tls.CertificateVerificationError
		var herr x509.HostnameError
		if !errors.As(err, &verr) || !errors.As(err, &herr) {
			t.Errorf("%s: handshake as other.example: got %v, want a hostname verification error", tc.name, err)
		}
	}
}

func TestLoadTLSMaterialsMissing(t *testing.T) {
	if _, err := LoadTLSMaterials(t.TempDir()); err == nil {
		t.Fatal("empty dir loaded")
	}
}

func TestLoadTLSMaterialsCorruptCA(t *testing.T) {
	dir := t.TempDir()
	if err := SaveTLSMaterials(dir, "x", []string{"127.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ca.pem"), []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTLSMaterials(dir); err == nil {
		t.Fatal("corrupt CA accepted")
	}
}

func TestLoadTLSMaterialsCorruptKey(t *testing.T) {
	dir := t.TempDir()
	if err := SaveTLSMaterials(dir, "x", []string{"127.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "server-key.pem"), []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTLSMaterials(dir); err == nil {
		t.Fatal("corrupt key accepted")
	}
}

func TestRemoteErrorFormat(t *testing.T) {
	e := &RemoteError{Method: "m", Msg: "boom"}
	if !strings.Contains(e.Error(), "m") || !strings.Contains(e.Error(), "boom") {
		t.Fatalf("Error() = %q", e.Error())
	}
}

func TestMemAddr(t *testing.T) {
	ln := NewMemListener()
	defer ln.Close()
	if ln.Addr().String() != "mem" || ln.Addr().Network() != "mem" {
		t.Fatal("unexpected mem address")
	}
}
