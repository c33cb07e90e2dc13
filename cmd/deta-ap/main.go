// Command deta-ap runs DeTA's control plane: the attestation proxy that
// verifies aggregator CVMs and provisions authentication tokens (Phase I),
// the simulated vendor endorsement/RAS role, and the key-broker service
// that dispatches the permutation key and per-round training identifiers.
//
// Start it first, then deta-aggregator instances, then deta-party
// instances:
//
//	deta-ap -listen 127.0.0.1:7000 -tls-dir ./tls
//
// The AP speaks only control-plane RPCs (registration, attestation,
// key/round dispatch), which are gob-encoded; the fixed-layout fragment
// codec that parties and aggregators exchange never appears on this
// daemon's connections. Round lifecycle and party liveness are likewise
// aggregator-side concerns
// (-round-deadline/-grace/-heartbeat on deta-aggregator, -heartbeat on
// deta-party): the AP is stateless about rounds beyond issuing their IDs,
// so evicted parties keep their broker registration and rejoin the
// aggregators directly on their next signal.
package main

import (
	"flag"
	"log"
	"os"

	"deta/internal/core"
	"deta/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7000", "address to serve the AP control plane on")
	tlsDir := flag.String("tls-dir", "./deta-tls", "directory for TLS materials (minted if missing)")
	permKeyBytes := flag.Int("perm-key-bytes", 32, "permutation key size in bytes (min 16)")
	host := flag.String("tls-host", "127.0.0.1", "host name/IP baked into the minted server certificate")
	flag.Parse()

	log.SetPrefix("deta-ap: ")
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if _, err := os.Stat(*tlsDir); os.IsNotExist(err) {
		log.Printf("minting TLS materials in %s", *tlsDir)
		if err := transport.SaveTLSMaterials(*tlsDir, "deta-ap", []string{*host, "localhost"}); err != nil {
			log.Fatalf("minting TLS materials: %v", err)
		}
	}
	mat, err := transport.LoadTLSMaterials(*tlsDir)
	if err != nil {
		log.Fatalf("loading TLS materials: %v", err)
	}

	svc, err := core.NewAPService(core.OVMF, *permKeyBytes)
	if err != nil {
		log.Fatalf("building AP service: %v", err)
	}
	srv := transport.NewServer()
	svc.Serve(srv)

	ln, err := mat.ListenTLS(*listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("attestation proxy + key broker serving on %s (expected OVMF measurement fixed)", ln.Addr())
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
}
