package core

import (
	"context"
	"crypto/tls"
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

// This file is the control plane for multi-process deployments
// (cmd/deta-ap, cmd/deta-aggregator, cmd/deta-party): an RPC service that
// bundles the vendor's endorsement/RAS role, the attestation proxy, and
// the key broker, plus the aggregator-side flow that attests a locally
// hosted CVM against a remote AP.
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
	MethodAPAggregators = "ap.Aggregators"
)

// Control-plane wire messages.
type (
	// EndorseReq asks the vendor role to endorse a platform VCEK.
	EndorseReq struct {
		PlatformName string
		VCEKPub      []byte
	}
	// EndorseResp carries the endorsed chain.
	EndorseResp struct{ Chain sev.CertChain }

	// NonceReq starts an attestation exchange for an aggregator.
	NonceReq struct{ AggregatorID string }
	// NonceResp carries the AP's challenge nonce.
	NonceResp struct{ Nonce []byte }

	// AttestReq submits the attestation report for verification.
	AttestReq struct {
		AggregatorID string
		Report       *sev.AttestationReport
	}
	// AttestResp carries the launch blob (the serialized ECDSA token) on
	// success.
	AttestResp struct{ LaunchBlob []byte }

	// TokenPubKeyReq fetches an aggregator's provisioned token key.
	TokenPubKeyReq struct{ AggregatorID string }
	// TokenPubKeyResp carries it.
	TokenPubKeyResp struct{ PubKey []byte }

	// RegisterPartyReq registers a party with the key broker.
	RegisterPartyReq struct{ PartyID string }
	// RegisterPartyResp acknowledges.
	RegisterPartyResp struct{ OK bool }

	// PermKeyReq fetches the shared permutation key.
	PermKeyReq struct{ PartyID string }
	// PermKeyResp carries it.
	PermKeyResp struct{ Key []byte }

	// RoundIDReq fetches a round's training identifier.
	RoundIDReq struct{ Round int }
	// RoundIDResp carries it.
	RoundIDResp struct{ ID []byte }

	// AggregatorsReq lists provisioned aggregators.
	AggregatorsReq struct{}
	// AggregatorsResp carries their IDs.
	AggregatorsResp struct{ IDs []string }
)

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
	transport.HandleTyped(srv, MethodAPEndorse, func(r EndorseReq) (EndorseResp, error) {
		chain, err := s.vendor.Endorse(r.PlatformName, r.VCEKPub)
		if err != nil {
			return EndorseResp{}, err
		}
		return EndorseResp{Chain: chain}, nil
	})
	transport.HandleTyped(srv, MethodAPNonce, func(r NonceReq) (NonceResp, error) {
		if r.AggregatorID == "" {
			return NonceResp{}, errors.New("empty aggregator ID")
		}
		nonce, err := attest.NewNonce()
		if err != nil {
			return NonceResp{}, err
		}
		s.mu.Lock()
		s.nonces[r.AggregatorID] = nonce
		s.mu.Unlock()
		return NonceResp{Nonce: nonce}, nil
	})
	transport.HandleTyped(srv, MethodAPAttest, func(r AttestReq) (AttestResp, error) {
		s.mu.Lock()
		nonce, ok := s.nonces[r.AggregatorID]
		delete(s.nonces, r.AggregatorID)
		s.mu.Unlock()
		if !ok {
			return AttestResp{}, fmt.Errorf("no pending nonce for %q; call %s first", r.AggregatorID, MethodAPNonce)
		}
		blob, err := s.proxy.VerifyAndIssueToken(r.AggregatorID, r.Report, nonce)
		if err != nil {
			return AttestResp{}, err
		}
		//lint:ignore keytaint the launch blob rides the TLS-protected attestation response by design — in real SEV it would be encrypted to the platform's transport keys (see file header)
		return AttestResp{LaunchBlob: blob}, nil
	})
	transport.HandleTyped(srv, MethodAPTokenPubKey, func(r TokenPubKeyReq) (TokenPubKeyResp, error) {
		pub, err := s.proxy.TokenPubKey(r.AggregatorID)
		if err != nil {
			return TokenPubKeyResp{}, err
		}
		return TokenPubKeyResp{PubKey: pub}, nil
	})
	transport.HandleTyped(srv, MethodAPRegister, func(r RegisterPartyReq) (RegisterPartyResp, error) {
		if r.PartyID == "" {
			return RegisterPartyResp{}, errors.New("empty party ID")
		}
		s.broker.RegisterParty(r.PartyID)
		return RegisterPartyResp{OK: true}, nil
	})
	transport.HandleTyped(srv, MethodAPPermKey, func(r PermKeyReq) (PermKeyResp, error) {
		key, err := s.broker.PermutationKey(r.PartyID)
		if err != nil {
			return PermKeyResp{}, err
		}
		return PermKeyResp{Key: key}, nil
	})
	transport.HandleTyped(srv, MethodAPRoundID, func(r RoundIDReq) (RoundIDResp, error) {
		id, err := s.broker.RoundID(r.Round)
		if err != nil {
			return RoundIDResp{}, err
		}
		return RoundIDResp{ID: id}, nil
	})
	transport.HandleTyped(srv, MethodAPAggregators, func(AggregatorsReq) (AggregatorsResp, error) {
		return AggregatorsResp{IDs: s.proxy.AggregatorIDs()}, nil
	})
}

// APClient is the remote handle to the AP control plane.
type APClient struct{ C *transport.Client }

// Endorse asks the vendor role to endorse a platform key.
func (a *APClient) Endorse(ctx context.Context, platformName string, vcekPub []byte) (sev.CertChain, error) {
	resp, err := transport.CallTypedContext[EndorseReq, EndorseResp](ctx, a.C, MethodAPEndorse,
		EndorseReq{PlatformName: platformName, VCEKPub: vcekPub})
	if err != nil {
		return sev.CertChain{}, err
	}
	return resp.Chain, nil
}

// AttestCVM runs the aggregator-side Phase I against the remote AP: fetch a
// nonce, produce the report, submit it, and inject the returned launch blob
// into the paused CVM before resuming.
func (a *APClient) AttestCVM(ctx context.Context, aggregatorID string, platform *sev.Platform, cvm *sev.CVM) error {
	nresp, err := transport.CallTypedContext[NonceReq, NonceResp](ctx, a.C, MethodAPNonce, NonceReq{AggregatorID: aggregatorID})
	if err != nil {
		return err
	}
	report, err := platform.AttestCVM(cvm, 0, nresp.Nonce)
	if err != nil {
		return err
	}
	aresp, err := transport.CallTypedContext[AttestReq, AttestResp](ctx, a.C, MethodAPAttest,
		AttestReq{AggregatorID: aggregatorID, Report: report})
	if err != nil {
		return err
	}
	if err := cvm.InjectLaunchSecret(aresp.LaunchBlob); err != nil {
		return err
	}
	return cvm.Resume()
}

// TokenPubKey fetches the provisioned token key for an aggregator.
func (a *APClient) TokenPubKey(ctx context.Context, aggregatorID string) ([]byte, error) {
	resp, err := transport.CallTypedContext[TokenPubKeyReq, TokenPubKeyResp](ctx, a.C, MethodAPTokenPubKey,
		TokenPubKeyReq{AggregatorID: aggregatorID})
	if err != nil {
		return nil, err
	}
	return resp.PubKey, nil
}

// RegisterParty registers with the key broker.
func (a *APClient) RegisterParty(ctx context.Context, partyID string) error {
	_, err := transport.CallTypedContext[RegisterPartyReq, RegisterPartyResp](ctx, a.C, MethodAPRegister,
		RegisterPartyReq{PartyID: partyID})
	return err
}

// PermKey fetches the shared permutation key.
func (a *APClient) PermKey(ctx context.Context, partyID string) ([]byte, error) {
	resp, err := transport.CallTypedContext[PermKeyReq, PermKeyResp](ctx, a.C, MethodAPPermKey, PermKeyReq{PartyID: partyID})
	if err != nil {
		return nil, err
	}
	return resp.Key, nil
}

// RoundID fetches a round's training identifier.
func (a *APClient) RoundID(ctx context.Context, round int) ([]byte, error) {
	resp, err := transport.CallTypedContext[RoundIDReq, RoundIDResp](ctx, a.C, MethodAPRoundID, RoundIDReq{Round: round})
	if err != nil {
		return nil, err
	}
	return resp.ID, nil
}

// Aggregators lists provisioned aggregator IDs.
func (a *APClient) Aggregators(ctx context.Context) ([]string, error) {
	resp, err := transport.CallTypedContext[AggregatorsReq, AggregatorsResp](ctx, a.C, MethodAPAggregators, AggregatorsReq{})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// DialAggregators dials every entry of a comma-separated id=addr list over
// TLS — with backoff, since peers may still be starting — and returns the
// clients sorted by ID, the fleet order all parties share. Each client's
// Redial repairs its link after the aggregator crashes or restarts; the
// retry of the interrupted call stays with the round loop (uploads and
// fusion are idempotent server-side). An empty list is no aggregators.
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
		c, err := mat.DialTLSBackoff(ctx, addr, tlsName, transport.Backoff{Attempts: transport.UnlimitedAttempts})
		if err != nil {
			return nil, fmt.Errorf("core: dialing %s at %s: %w", id, addr, err)
		}
		out = append(out, &AggregatorClient{ID: id, C: c, Redial: func(ctx context.Context) (net.Conn, error) {
			d := &tls.Dialer{Config: mat.ClientConfig(tlsName)}
			return d.DialContext(ctx, "tcp", addr)
		}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
