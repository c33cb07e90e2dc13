package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"

	"deta/internal/attest"
	"deta/internal/sev"
	"deta/internal/transport"
)

// This file is the control plane, and the one trust bootstrap every
// deployment runs against it: an RPC service that bundles the vendor's
// endorsement/RAS role, the attestation proxy and the key broker, served
// over TLS by cmd/deta-ap and in process by ServeAP; BootAggregatorCVM,
// which boots an aggregator through it (Phase I); and RoundStep.Join
// (round.go), which enrols a party (Phase II, registration, key).
//
// In real SEV the launch blob is encrypted to the platform's transport
// keys; here it travels inside the (TLS-protected) RPC response — a
// documented simulation shortcut that preserves the protocol's structure.

// AP control-plane RPC method names.
const (
	MethodAPEndorse     = "ap.Endorse"
	MethodAPNonce       = "ap.Nonce"
	MethodAPAttest      = "ap.Attest"
	MethodAPTokenPubKey = "ap.TokenPubKey"
	MethodAPRegister    = "ap.RegisterParty"
	MethodAPPermKey     = "ap.PermKey"
	MethodAPRoundID     = "ap.RoundID"
)

// Control-plane bodies. A method with one field sends that field as its
// body, raw, and an empty body is an "OK". The rest carry an ID field
// (sev.AppendField) ahead of a payload, and the endorsement chain and the
// attestation report have one layout each, sev's (sev/wire.go):
//
//	method            request                           response
//	ap.Endorse        platform name field, VCEK key     certificate chain
//	ap.Nonce          aggregator ID                     nonce
//	ap.Attest         aggregator ID field, report       launch blob
//	ap.TokenPubKey    aggregator ID                     token public key
//	ap.RegisterParty  party ID                          empty
//	ap.PermKey        party ID                          permutation key
//	ap.RoundID        round-control layout, round only  round ID

// OVMF is the firmware image all genuine aggregator CVMs boot in this
// reproduction; the AP expects its measurement.
var OVMF = []byte("deta-aggregator-firmware-v1: attested aggregation service build")

// APService is the deployable control plane: vendor + attestation proxy +
// key broker.
type APService struct {
	vendor *sev.Vendor
	proxy  *attest.Proxy
	broker *attest.KeyBroker

	mu     sync.Mutex
	nonces map[string][]byte // pending attestation nonces per aggregator
}

// NewAPService builds the control plane expecting aggregators to boot the
// given firmware.
func NewAPService(ovmf []byte, permKeyBytes int) (*APService, error) {
	vendor, err := sev.NewVendor()
	if err != nil {
		return nil, err
	}
	broker, err := attest.NewKeyBroker(permKeyBytes)
	if err != nil {
		return nil, err
	}
	return &APService{
		vendor: vendor,
		proxy:  attest.NewProxy(vendor.RAS(), ovmf),
		broker: broker,
		nonces: make(map[string][]byte),
	}, nil
}

// Vendor exposes the underlying vendor (for in-process tests).
func (s *APService) Vendor() *sev.Vendor { return s.vendor }

// Serve registers the control-plane methods on an RPC server.
func (s *APService) Serve(srv *transport.Server) {
	srv.Handle(MethodAPEndorse, func(body []byte) ([]byte, error) {
		name, pub, err := sev.CutField(body)
		if err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		// pub aliases the request body, which outlives the call:
		// Endorse signs it into the chain, encoded here, and keeps none.
		chain, err := s.vendor.Endorse(string(name), pub)
		return sev.AppendChain(nil, chain), err
	})
	srv.Handle(MethodAPNonce, func(body []byte) ([]byte, error) {
		if len(body) == 0 {
			return nil, errors.New("empty aggregator ID")
		}
		nonce, err := attest.NewNonce()
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.nonces[string(body)] = nonce
		s.mu.Unlock()
		return nonce, nil
	})
	srv.Handle(MethodAPAttest, func(body []byte) ([]byte, error) {
		id, rest, err := sev.CutField(body)
		var report *sev.AttestationReport
		if err == nil {
			report, err = sev.DecodeReport(rest)
		}
		if err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		aggregatorID := string(id)
		s.mu.Lock()
		nonce, ok := s.nonces[aggregatorID]
		delete(s.nonces, aggregatorID)
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no pending nonce for %q; call %s first", aggregatorID, MethodAPNonce)
		}
		//lint:ignore keytaint the launch blob rides the TLS-protected attestation response by design — in real SEV it would be encrypted to the platform's transport keys (see file header)
		return s.proxy.VerifyAndIssueToken(aggregatorID, report, nonce)
	})
	srv.Handle(MethodAPTokenPubKey, func(body []byte) ([]byte, error) {
		return s.proxy.TokenPubKey(string(body))
	})
	srv.Handle(MethodAPRegister, func(body []byte) ([]byte, error) {
		if len(body) == 0 {
			return nil, errors.New("empty party ID")
		}
		s.broker.RegisterParty(string(body))
		return nil, nil
	})
	srv.Handle(MethodAPPermKey, func(body []byte) ([]byte, error) {
		key, err := s.broker.PermutationKey(string(body))
		//lint:ignore keytaint releasing the permutation key to a registered party is this method's purpose, over the AP's TLS channel
		return key, withStatus(err)
	})
	srv.Handle(MethodAPRoundID, func(body []byte) ([]byte, error) {
		_, round, _, err := decodeCtl(body, ctlFields{round: true})
		if err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		return s.broker.RoundID(round)
	})
}

// ServeAP serves a fresh control plane, with a 256-bit permutation key, on
// an in-memory listener: the AP of every in-process deployment (Session,
// the experiments, the tests), reached over the RPCs the daemons use. It
// returns the service, a client connected to it, and stop, which closes
// both.
//
//lint:ignore ctxflow its one dial hands a net.Pipe end to the listener's buffered queue and never blocks: there is nothing for a context to bound
func ServeAP() (*APService, *APClient, func(), error) {
	svc, err := NewAPService(OVMF, 32)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := transport.NewServer()
	svc.Serve(srv)
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	conn, err := ln.Dial()
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	ap := &APClient{C: transport.NewClient(conn)}
	return svc, ap, func() {
		_ = ap.C.Close() // always nil: it only fails the calls in flight
		srv.Close()
	}, nil
}

// BootAggregatorCVM runs Phase I for aggregator id against the AP, the one
// way every deployment boots an aggregator: it generates the host's VCEK
// and has the AP's vendor role endorse it (each aggregator may run on its
// own host, §4.1), launches a CVM booting OVMF, and has the AP attest it
// and inject its token. It returns the CVM, not a node, so a caller can
// build the node fresh or recover it from a journal.
func BootAggregatorCVM(ctx context.Context, ap *APClient, id string) (*sev.CVM, error) {
	host := "host/" + id
	key, pub, err := sev.GenerateVCEK()
	if err != nil {
		return nil, err
	}
	chain, err := ap.Endorse(ctx, host, pub)
	if err != nil {
		return nil, fmt.Errorf("core: endorsing %s: %w", host, err)
	}
	platform, err := sev.NewEndorsedPlatform(host, chain, key)
	if err != nil {
		return nil, err
	}
	cvm, err := platform.LaunchCVM(OVMF)
	if err != nil {
		return nil, err
	}
	if err := ap.AttestCVM(ctx, id, platform, cvm); err != nil {
		return nil, fmt.Errorf("core: attesting %s: %w", id, err)
	}
	return cvm, nil
}

// APClient is the remote handle to the AP control plane.
type APClient struct{ C *transport.Client }

// Endorse asks the vendor role to endorse a platform key.
func (a *APClient) Endorse(ctx context.Context, platformName string, vcekPub []byte) (sev.CertChain, error) {
	body, err := a.C.CallContext(ctx, MethodAPEndorse, append(sev.AppendField(nil, platformName), vcekPub...))
	if err != nil {
		return sev.CertChain{}, err
	}
	return sev.DecodeChain(body)
}

// AttestCVM runs the aggregator-side Phase I against the remote AP: fetch a
// nonce, produce the report, submit it, and inject the returned launch blob
// into the paused CVM before resuming.
func (a *APClient) AttestCVM(ctx context.Context, aggregatorID string, platform *sev.Platform, cvm *sev.CVM) error {
	nonce, err := a.C.CallContext(ctx, MethodAPNonce, []byte(aggregatorID))
	if err != nil {
		return err
	}
	report, err := platform.AttestCVM(cvm, 0, nonce)
	if err != nil {
		return err
	}
	blob, err := a.C.CallContext(ctx, MethodAPAttest, sev.AppendReport(sev.AppendField(nil, aggregatorID), report))
	if err != nil {
		return err
	}
	if err := cvm.InjectLaunchSecret(blob); err != nil {
		return err
	}
	return cvm.Resume()
}

// TokenPubKey fetches the provisioned token key for an aggregator.
func (a *APClient) TokenPubKey(ctx context.Context, aggregatorID string) ([]byte, error) {
	return a.C.CallContext(ctx, MethodAPTokenPubKey, []byte(aggregatorID))
}

// RegisterParty registers with the key broker.
func (a *APClient) RegisterParty(ctx context.Context, partyID string) error {
	_, err := a.C.CallContext(ctx, MethodAPRegister, []byte(partyID))
	return err
}

// PermKey fetches the shared permutation key. A party the broker never
// registered gets attest.ErrUnregisteredParty.
func (a *APClient) PermKey(ctx context.Context, partyID string) ([]byte, error) {
	key, err := a.C.CallContext(ctx, MethodAPPermKey, []byte(partyID))
	return key, fromStatus(err)
}

// RoundID fetches a round's training identifier.
func (a *APClient) RoundID(ctx context.Context, round int) ([]byte, error) {
	body, err := appendCtl(nil, 0, round, "")
	if err != nil {
		return nil, err
	}
	return a.C.CallContext(ctx, MethodAPRoundID, body)
}

// DialAggregators dials every entry of a comma-separated id=addr list with
// the boot dial — peers may still be starting — and returns the clients
// sorted by ID, the fleet order all parties share. Each client's Redial,
// one Dial attempt, repairs its link after the aggregator crashes or
// restarts; the retry of the interrupted call stays with the round loop
// (uploads and fusion are idempotent server-side). An empty list is no
// aggregators.
func DialAggregators(ctx context.Context, mat *transport.TLSMaterials, spec, tlsName string) ([]*AggregatorClient, error) {
	if spec == "" {
		return nil, nil
	}
	var out []*AggregatorClient
	for _, entry := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("core: bad aggregator entry %q (want id=addr)", entry)
		}
		c, err := mat.DialTLSBackoff(ctx, addr, tlsName)
		if err != nil {
			return nil, fmt.Errorf("core: dialing %s at %s: %w", id, addr, err)
		}
		out = append(out, &AggregatorClient{ID: id, C: c, Redial: func(ctx context.Context) (net.Conn, error) {
			return mat.Dial(ctx, addr, tlsName)
		}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
