package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"

	"deta/internal/tensor"
	"deta/internal/transport"
)

// RPC method names exposed by an aggregator server. Parties speak this
// protocol over TLS after Phase II registration.
const (
	MethodChallenge = "deta.Challenge"
	MethodRegister  = "deta.Register"
	MethodUpload    = "deta.Upload"
	MethodComplete  = "deta.Complete"
	MethodAggregate = "deta.Aggregate"
	MethodDownload  = "deta.Download"
	MethodHeartbeat = "deta.Heartbeat"
)

// Wire messages. Challenge and Register run once per connection and are
// gob; every message of the round loop has a fixed layout (below).
type (
	// ChallengeReq asks the aggregator to prove token possession.
	ChallengeReq struct{ Nonce []byte }
	// ChallengeResp carries the token signature over the nonce.
	ChallengeResp struct{ Sig []byte }

	// RegisterReq admits a party.
	RegisterReq struct{ PartyID string }
	// RegisterResp acknowledges registration.
	RegisterResp struct{ OK bool }

	// UploadReq carries one transformed fragment.
	UploadReq struct {
		Round    int
		PartyID  string
		Frag     int // fragment (partition) index at this aggregator
		Fragment []float64
		Weight   float64
	}
	// UploadResp acknowledges an upload.
	UploadResp struct{ OK bool }

	// CompleteReq polls round completeness.
	CompleteReq struct{ Round int }
	// CompleteResp reports it. Abandoned flags a round past its deadline
	// below quorum, so pollers skip it instead of waiting forever.
	CompleteResp struct {
		Complete  bool
		Abandoned bool
	}

	// HeartbeatReq is a party's lightweight liveness signal.
	HeartbeatReq struct{ PartyID string }
	// HeartbeatResp acknowledges it; Rejoined reports that the heartbeat
	// readmitted a previously evicted party.
	HeartbeatResp struct {
		OK       bool
		Rejoined bool
	}

	// AggregateReq instructs a follower to fuse a round (sent by the
	// initiator's sync protocol).
	AggregateReq struct{ Round int }
	// AggregateResp acknowledges fusion.
	AggregateResp struct{ OK bool }

	// DownloadReq fetches the aggregated fragment.
	DownloadReq struct {
		Round   int
		PartyID string
	}
	// DownloadResp carries it.
	DownloadResp struct{ Fragment []float64 }
)

// The two fragment-bearing messages ride transport's fragment codec; the
// other eight round-loop messages share the round-control layout further
// down. Both are the message's only encoding (transport.Encode/Decode).

// AppendWire implements transport.WireAppender.
func (r UploadReq) AppendWire(dst []byte) ([]byte, error) {
	return transport.AppendFragment(dst, &transport.Fragment{
		Round: r.Round, Index: r.Frag, PartyID: r.PartyID,
		Weight: r.Weight, Values: tensor.Vector(r.Fragment),
	})
}

// DecodeWire implements transport.WireDecoder. The fragment lands in a
// pooled tensor buffer (see transport.DecodeFragment).
func (r *UploadReq) DecodeWire(data []byte) error {
	var f transport.Fragment
	if err := transport.DecodeFragment(data, &f); err != nil {
		return err
	}
	r.Round, r.Frag, r.PartyID, r.Weight, r.Fragment = f.Round, f.Index, f.PartyID, f.Weight, f.Values
	return nil
}

// AppendWire implements transport.WireAppender.
func (r DownloadResp) AppendWire(dst []byte) ([]byte, error) {
	return transport.AppendFragment(dst, &transport.Fragment{Values: tensor.Vector(r.Fragment)})
}

// DecodeWire implements transport.WireDecoder.
func (r *DownloadResp) DecodeWire(data []byte) error {
	var f transport.Fragment
	if err := transport.DecodeFragment(data, &f); err != nil {
		return err
	}
	r.Fragment = f.Values
	return nil
}

// Round-control body, the one layout of the eight small messages exchanged
// every round (little-endian, like the fragment codec):
//
//	offset  size  field
//	0       1     flags; each message defines its bits, any other is rejected
//	1       4     round uint32; 0 in a message that carries none
//	5       n     party ID, to the end of the body; empty in a message that
//	              carries none
//
// A body is checked against exactly what its message carries, so one in
// another encoding (gob, a fragment) or with bytes left over is a decode
// error.
const ctlFixedLen = 5

// ctlFields says which of the layout's fields a message carries.
type ctlFields struct {
	flags byte // mask of the defined flag bits
	round bool
	party bool
}

func appendCtl(dst []byte, flags byte, round int, partyID string) ([]byte, error) {
	if round < 0 || int64(round) > math.MaxUint32 {
		return nil, fmt.Errorf("core: round %d outside uint32 range", round)
	}
	dst = slices.Grow(dst, ctlFixedLen+len(partyID))
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(round))
	return append(dst, partyID...), nil
}

func decodeCtl(data []byte, has ctlFields) (flags byte, round int, partyID string, err error) {
	if len(data) < ctlFixedLen {
		return 0, 0, "", fmt.Errorf("core: round-control body truncated at %d bytes", len(data))
	}
	flags = data[0]
	if unknown := flags &^ has.flags; unknown != 0 {
		return 0, 0, "", fmt.Errorf("core: round-control body has unknown flag bits %#02x", unknown)
	}
	round = int(binary.LittleEndian.Uint32(data[1:ctlFixedLen]))
	if !has.round && round != 0 {
		return 0, 0, "", fmt.Errorf("core: round-control body carries round %d where the message has none", round)
	}
	if !has.party && len(data) != ctlFixedLen {
		return 0, 0, "", fmt.Errorf("core: round-control body has %d trailing bytes", len(data)-ctlFixedLen)
	}
	return flags, round, string(data[ctlFixedLen:]), nil
}

// flag returns bit if set, for assembling a flags byte from bools.
func flag(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

// AppendWire and DecodeWire below implement transport.WireAppender and
// transport.WireDecoder for the eight round-control messages.

func (r UploadResp) AppendWire(dst []byte) ([]byte, error) {
	return appendCtl(dst, flag(r.OK, 1), 0, "")
}

func (r *UploadResp) DecodeWire(data []byte) error {
	flags, _, _, err := decodeCtl(data, ctlFields{flags: 1})
	r.OK = flags&1 != 0
	return err
}

func (r CompleteReq) AppendWire(dst []byte) ([]byte, error) { return appendCtl(dst, 0, r.Round, "") }

func (r *CompleteReq) DecodeWire(data []byte) (err error) {
	_, r.Round, _, err = decodeCtl(data, ctlFields{round: true})
	return err
}

func (r CompleteResp) AppendWire(dst []byte) ([]byte, error) {
	return appendCtl(dst, flag(r.Complete, 1)|flag(r.Abandoned, 2), 0, "")
}

func (r *CompleteResp) DecodeWire(data []byte) error {
	flags, _, _, err := decodeCtl(data, ctlFields{flags: 1 | 2})
	r.Complete, r.Abandoned = flags&1 != 0, flags&2 != 0
	return err
}

func (r HeartbeatReq) AppendWire(dst []byte) ([]byte, error) { return appendCtl(dst, 0, 0, r.PartyID) }

func (r *HeartbeatReq) DecodeWire(data []byte) (err error) {
	_, _, r.PartyID, err = decodeCtl(data, ctlFields{party: true})
	return err
}

func (r HeartbeatResp) AppendWire(dst []byte) ([]byte, error) {
	return appendCtl(dst, flag(r.OK, 1)|flag(r.Rejoined, 2), 0, "")
}

func (r *HeartbeatResp) DecodeWire(data []byte) error {
	flags, _, _, err := decodeCtl(data, ctlFields{flags: 1 | 2})
	r.OK, r.Rejoined = flags&1 != 0, flags&2 != 0
	return err
}

func (r AggregateReq) AppendWire(dst []byte) ([]byte, error) { return appendCtl(dst, 0, r.Round, "") }

func (r *AggregateReq) DecodeWire(data []byte) (err error) {
	_, r.Round, _, err = decodeCtl(data, ctlFields{round: true})
	return err
}

func (r AggregateResp) AppendWire(dst []byte) ([]byte, error) {
	return appendCtl(dst, flag(r.OK, 1), 0, "")
}

func (r *AggregateResp) DecodeWire(data []byte) error {
	flags, _, _, err := decodeCtl(data, ctlFields{flags: 1})
	r.OK = flags&1 != 0
	return err
}

func (r DownloadReq) AppendWire(dst []byte) ([]byte, error) {
	return appendCtl(dst, 0, r.Round, r.PartyID)
}

func (r *DownloadReq) DecodeWire(data []byte) (err error) {
	_, r.Round, r.PartyID, err = decodeCtl(data, ctlFields{round: true, party: true})
	return err
}

// statusCodes is the one table between the aggregator's typed errors and
// the status code a failed RPC carries (transport.RemoteError.Code): the
// server stamps the code of the sentinel a handler's error wraps, the
// client re-wraps the sentinel for the code it receives, so errors.Is holds
// across the RPC boundary and nothing reads the error text. Index = code; 0
// is transport's "unclassified". Codes are wire values: append, never
// renumber.
var statusCodes = [...]error{
	1: ErrNotRegistered,
	2: ErrRoundIncomplete,
	3: ErrNotAggregated,
	4: ErrDuplicateUpload,
	5: ErrStragglerCut,
	6: ErrRoundAbandoned,
}

// withStatus stamps a handler's error (nil included) with its status code,
// if it has one.
func withStatus(err error) error {
	for code := 1; code < len(statusCodes); code++ {
		if errors.Is(err, statusCodes[code]) {
			return &transport.StatusError{Code: uint8(code), Err: err}
		}
	}
	return err
}

// fromStatus is withStatus's inverse on the calling side: a remote error
// with a known code also wraps that code's sentinel. An unknown code (a
// newer peer) stays a plain RemoteError.
func fromStatus(err error) error {
	var re *transport.RemoteError
	if errors.As(err, &re) && re.Code != 0 && int(re.Code) < len(statusCodes) {
		return fmt.Errorf("%w (%w)", statusCodes[re.Code], err)
	}
	return err
}

// handle registers one aggregator method with its errors status-stamped.
func handle[Req, Resp any](srv *transport.Server, method string, h func(Req) (Resp, error)) {
	transport.HandleTyped(srv, method, func(r Req) (Resp, error) {
		resp, err := h(r)
		return resp, withStatus(err)
	})
}

// ServeAggregator binds an AggregatorNode's protocol onto an RPC server.
func ServeAggregator(node *AggregatorNode, srv *transport.Server) {
	handle(srv, MethodChallenge, func(r ChallengeReq) (ChallengeResp, error) {
		sig, err := node.SignChallenge(r.Nonce)
		if err != nil {
			return ChallengeResp{}, err
		}
		return ChallengeResp{Sig: sig}, nil
	})
	handle(srv, MethodRegister, func(r RegisterReq) (RegisterResp, error) {
		if r.PartyID == "" {
			return RegisterResp{}, errors.New("empty party ID")
		}
		node.Register(r.PartyID)
		return RegisterResp{OK: true}, nil
	})
	handle(srv, MethodUpload, func(r UploadReq) (UploadResp, error) {
		// The decoded fragment was materialized for this request, so the
		// node takes ownership instead of paying a defensive clone.
		if err := node.UploadOwned(r.Round, r.PartyID, tensor.Vector(r.Fragment), r.Weight); err != nil {
			return UploadResp{}, err
		}
		return UploadResp{OK: true}, nil
	})
	handle(srv, MethodComplete, func(r CompleteReq) (CompleteResp, error) {
		done, abandoned := node.RoundStatus(r.Round)
		return CompleteResp{Complete: done, Abandoned: abandoned}, nil
	})
	handle(srv, MethodHeartbeat, func(r HeartbeatReq) (HeartbeatResp, error) {
		rejoined, err := node.Heartbeat(r.PartyID)
		if err != nil {
			return HeartbeatResp{}, err
		}
		return HeartbeatResp{OK: true, Rejoined: rejoined}, nil
	})
	handle(srv, MethodAggregate, func(r AggregateReq) (AggregateResp, error) {
		if err := node.Aggregate(r.Round); err != nil {
			return AggregateResp{}, err
		}
		return AggregateResp{OK: true}, nil
	})
	handle(srv, MethodDownload, func(r DownloadReq) (DownloadResp, error) {
		// The response is encoded straight from the node's fused vector,
		// which nothing mutates once Aggregate has installed it.
		frag, err := node.fused(r.Round, r.PartyID)
		if err != nil {
			return DownloadResp{}, err
		}
		return DownloadResp{Fragment: frag}, nil
	})
}

// AggregatorClient is the party-side handle to one remote aggregator. All
// methods take a context whose deadline bounds the RPC; the underlying
// transport.Client multiplexes concurrent calls, so one AggregatorClient
// is safe to share across the fan-out goroutines of a Fleet.
//
// With Redial set, a connection-level failure (crashed/restarted
// aggregator, severed link) is repaired transparently: the next call
// re-dials and proceeds on a fresh connection. Application-level retries
// stay with the caller — combined with idempotent uploads they make a
// party's round loop safe to re-drive after any ambiguous failure.
type AggregatorClient struct {
	ID string
	C  *transport.Client

	// Redial, when non-nil, re-establishes the connection after the
	// current one fails (or when C starts nil). It is called with the
	// in-flight call's context.
	Redial func(ctx context.Context) (net.Conn, error)

	mu sync.Mutex // guards C swaps during redial
}

// client returns a healthy transport client, re-dialing if the previous
// connection died and a Redial function is configured.
func (a *AggregatorClient) client(ctx context.Context) (*transport.Client, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.C != nil && a.C.Err() == nil {
		return a.C, nil
	}
	if a.Redial == nil {
		if a.C == nil {
			return nil, fmt.Errorf("core: aggregator %s: no connection", a.ID)
		}
		return a.C, nil // sticky error surfaces in the call
	}
	//lint:ignore lockregion redial deliberately serializes callers: the shared connection is dead, so every concurrent call needs the one fresh conn this dial produces
	conn, err := a.Redial(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: redialing %s: %w", a.ID, err)
	}
	if a.C != nil {
		_ = a.C.Close() // the old connection already failed; its close error is noise
	}
	a.C = transport.NewClient(conn)
	return a.C, nil
}

func callAgg[Req, Resp any](ctx context.Context, a *AggregatorClient, method string, req Req) (Resp, error) {
	c, err := a.client(ctx)
	if err != nil {
		var zero Resp
		return zero, err
	}
	resp, err := transport.CallTypedContext[Req, Resp](ctx, c, method, req)
	if err != nil { // not fromStatus(nil): its errors.As target would cost the success path an allocation
		return resp, fromStatus(err)
	}
	return resp, nil
}

// Stats exposes the current connection's transport counters.
func (a *AggregatorClient) Stats() transport.StatsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.C == nil {
		return transport.StatsSnapshot{}
	}
	return a.C.Stats().Snapshot()
}

// Challenge runs the Phase II nonce exchange.
func (a *AggregatorClient) Challenge(ctx context.Context, nonce []byte) ([]byte, error) {
	resp, err := callAgg[ChallengeReq, ChallengeResp](ctx, a, MethodChallenge, ChallengeReq{Nonce: nonce})
	if err != nil {
		return nil, fmt.Errorf("core: challenge %s: %w", a.ID, err)
	}
	return resp.Sig, nil
}

// Register admits the party at this aggregator.
func (a *AggregatorClient) Register(ctx context.Context, partyID string) error {
	_, err := callAgg[RegisterReq, RegisterResp](ctx, a, MethodRegister, RegisterReq{PartyID: partyID})
	if err != nil {
		return fmt.Errorf("core: register at %s: %w", a.ID, err)
	}
	return nil
}

// Upload sends a transformed fragment; index is its partition index,
// carried in the wire header so journals and traces can tell which
// partition a payload belongs to. The server side is idempotent for
// identical retries, so re-sending after an ambiguous failure is safe.
func (a *AggregatorClient) Upload(ctx context.Context, round int, partyID string, frag tensor.Vector, index int, weight float64) error {
	_, err := callAgg[UploadReq, UploadResp](ctx, a, MethodUpload, UploadReq{
		Round: round, PartyID: partyID, Frag: index, Fragment: frag, Weight: weight,
	})
	if err != nil {
		return fmt.Errorf("core: upload to %s: %w", a.ID, err)
	}
	return nil
}

// Complete polls whether the round is ready to fuse, or abandoned — so
// sync loops skip a round the aggregator gave up on instead of polling it
// until their deadline.
func (a *AggregatorClient) Complete(ctx context.Context, round int) (complete, abandoned bool, err error) {
	resp, err := callAgg[CompleteReq, CompleteResp](ctx, a, MethodComplete, CompleteReq{Round: round})
	if err != nil {
		return false, false, err
	}
	return resp.Complete, resp.Abandoned, nil
}

// Heartbeat sends a liveness signal; rejoined reports that this heartbeat
// readmitted the (previously evicted) party.
func (a *AggregatorClient) Heartbeat(ctx context.Context, partyID string) (rejoined bool, err error) {
	resp, err := callAgg[HeartbeatReq, HeartbeatResp](ctx, a, MethodHeartbeat, HeartbeatReq{PartyID: partyID})
	if err != nil {
		return false, fmt.Errorf("core: heartbeat to %s: %w", a.ID, err)
	}
	return resp.Rejoined, nil
}

// Aggregate instructs the aggregator to fuse a round (idempotent on the
// server, so re-driving sync after a restart is safe).
func (a *AggregatorClient) Aggregate(ctx context.Context, round int) error {
	_, err := callAgg[AggregateReq, AggregateResp](ctx, a, MethodAggregate, AggregateReq{Round: round})
	if err != nil {
		return fmt.Errorf("core: aggregate at %s: %w", a.ID, err)
	}
	return nil
}

// Download fetches the aggregated fragment.
func (a *AggregatorClient) Download(ctx context.Context, round int, partyID string) (tensor.Vector, error) {
	resp, err := callAgg[DownloadReq, DownloadResp](ctx, a, MethodDownload, DownloadReq{
		Round: round, PartyID: partyID,
	})
	if err != nil {
		return nil, fmt.Errorf("core: download from %s: %w", a.ID, err)
	}
	return resp.Fragment, nil
}

// ErrVerificationFailed marks a Phase II *cryptographic* rejection — an
// aggregator that answered but could not prove token possession. Fan-out
// layers must never tolerate it under quorum: a connectivity failure is an
// availability problem, a verification failure is an adversary.
var ErrVerificationFailed = errors.New("core: aggregator failed Phase II verification")

// VerifyAndRegister performs the party-side Phase II against one remote
// aggregator: nonce challenge, signature verification against the AP's
// token public key, then registration. The context deadline bounds each
// RPC, so a dead or stalled endpoint fails fast instead of hanging the
// party.
func VerifyAndRegister(ctx context.Context, a *AggregatorClient, tokenPubKey []byte, partyID string,
	newNonce func() ([]byte, error), verify func(pub, nonce, sig []byte) error) error {
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	sig, err := a.Challenge(ctx, nonce)
	if err != nil {
		return err
	}
	if err := verify(tokenPubKey, nonce, sig); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrVerificationFailed, a.ID, err)
	}
	return a.Register(ctx, partyID)
}
