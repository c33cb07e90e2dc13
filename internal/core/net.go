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
	"time"

	"deta/internal/attest"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// RPC method names exposed by an aggregator server. Parties speak this
// protocol over TLS after Phase II registration.
const (
	MethodChallenge = "deta.Challenge"
	MethodRegister  = "deta.Register"
	MethodUpload    = "deta.Upload"
	MethodAggregate = "deta.Aggregate"
	MethodDownload  = "deta.Download"
	MethodHeartbeat = "deta.Heartbeat"
)

// Wire messages. Challenge and Register, run once per connection, send
// their one field as the body, raw: the nonce and the signature over it,
// then the party ID and an empty "OK". Every message of the round loop has
// a fixed layout (below).
type (
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

	// HeartbeatReq is a party's lightweight liveness signal.
	HeartbeatReq struct{ PartyID string }
	// HeartbeatResp acknowledges it; Rejoined reports that the heartbeat
	// readmitted a previously evicted party.
	HeartbeatResp struct {
		OK       bool
		Rejoined bool
	}

	// AggregateReq asks a follower to fuse a round once it has sealed: the
	// initiator's one sync message, which it re-sends while the follower
	// answers ErrRoundIncomplete.
	AggregateReq struct{ Round int }
	// AggregateResp acknowledges fusion.
	AggregateResp struct{ OK bool }

	// DownloadReq fetches the aggregated fragment.
	DownloadReq struct {
		Round   int
		PartyID string
	}
	// DownloadResp carries it, naming the round it was fused for. The
	// aggregator sends its journaled recAggregate payload as the body,
	// so there is no encoder on this side.
	DownloadResp struct {
		Round    int
		Fragment []float64
	}
)

// The two fragment-bearing messages ride transport's fragment codec; the
// other six round-loop messages share the round-control layout further
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

// DecodeWire implements transport.WireDecoder.
func (r *DownloadResp) DecodeWire(data []byte) error {
	var f transport.Fragment
	if err := transport.DecodeFragment(data, &f); err != nil {
		return err
	}
	r.Round, r.Fragment = f.Round, f.Values
	return nil
}

// Round-control body, the one layout of the six small messages exchanged
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
// transport.WireDecoder for the six round-control messages.

func (r UploadResp) AppendWire(dst []byte) ([]byte, error) {
	return appendCtl(dst, flag(r.OK, 1), 0, "")
}

func (r *UploadResp) DecodeWire(data []byte) error {
	flags, _, _, err := decodeCtl(data, ctlFields{flags: 1})
	r.OK = flags&1 != 0
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

// statusCodes is the one table between the services' typed errors and
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
	7: attest.ErrUnregisteredParty,
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
// newer peer) stays a plain RemoteError. Success returns before the
// errors.As target exists, so it costs no allocation.
func fromStatus(err error) error {
	if err == nil {
		return nil
	}
	var re *transport.RemoteError
	if errors.As(err, &re) && re.Code != 0 && int(re.Code) < len(statusCodes) {
		return fmt.Errorf("%w (%w)", statusCodes[re.Code], err)
	}
	return err
}

// handle registers one aggregator method with its errors status-stamped.
func handle[Req any, Resp transport.WireAppender, PReq transport.Decodes[Req]](srv *transport.Server, method string, h func(Req) (Resp, error)) {
	transport.HandleTyped[Req, Resp, PReq](srv, method, func(r Req) (Resp, error) {
		resp, err := h(r)
		return resp, withStatus(err)
	})
}

// ServeAggregator binds an AggregatorNode's protocol onto an RPC server.
func ServeAggregator(node *AggregatorNode, srv *transport.Server) {
	srv.Handle(MethodChallenge, func(body []byte) ([]byte, error) {
		sig, err := node.SignChallenge(body)
		return sig, withStatus(err)
	})
	srv.Handle(MethodRegister, func(body []byte) ([]byte, error) {
		if len(body) == 0 {
			return nil, errors.New("empty party ID")
		}
		node.Register(string(body))
		return nil, nil
	})
	// The two fragment-bearing methods see raw bodies, so that the node
	// encodes no fragment it already holds encoded.
	srv.Handle(MethodUpload, func(body []byte) ([]byte, error) {
		var r UploadReq
		if err := r.DecodeWire(body); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		// The decoded fragment was materialized for this request, so the
		// node takes ownership instead of paying a defensive clone, and
		// returns it to the pool when it does not or no longer stores it;
		// the body itself is the upload's WAL record.
		rec := record{typ: recUpload, n: r.Round, party: r.PartyID, frag: r.Fragment, weight: r.Weight, wire: body}
		if err := node.upload(rec, true); err != nil {
			return nil, withStatus(err)
		}
		return uploadOK, nil
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
	srv.Handle(MethodDownload, func(body []byte) ([]byte, error) {
		var r DownloadReq
		if err := r.DecodeWire(body); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		// The response body is the round's journaled record as the node
		// holds it, which nothing mutates once Aggregate has installed it.
		wire, err := node.fused(r.Round, r.PartyID)
		return wire, withStatus(err)
	})
}

// uploadOK is every successful upload's response body. A response body is
// only written out, never pooled, so one shared copy serves every call.
var uploadOK, _ = UploadResp{OK: true}.AppendWire(nil)

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

	mu sync.Mutex // guards C swaps during redial, and retired
	// retired sums the counters of the connections a redial replaced, so
	// Stats covers the link's whole life and not just its latest
	// connection.
	retired transport.StatsSnapshot
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
		a.retired = addStats(a.retired, a.C.Stats().Snapshot())
	}
	a.C = transport.NewClient(conn)
	return a.C, nil
}

// callAgg performs a typed call on the link, redialing a dead connection
// first, with a remote error re-wrapped for its status code. size is the
// request's encoded size when it may not fit a seed buffer, else 0 (see
// transport.CallSizedContext).
func callAgg[Req transport.WireAppender, Resp any, PResp transport.Decodes[Resp]](ctx context.Context, a *AggregatorClient, method string, req Req, size int) (Resp, error) {
	c, err := a.client(ctx)
	if err != nil {
		var zero Resp
		return zero, err
	}
	resp, err := transport.CallSizedContext[Req, Resp, PResp](ctx, c, method, req, size)
	return resp, fromStatus(err)
}

// callRaw is callAgg for a method whose body is its one field, raw.
func (a *AggregatorClient) callRaw(ctx context.Context, method string, body []byte) ([]byte, error) {
	c, err := a.client(ctx)
	if err != nil {
		return nil, err
	}
	out, err := c.CallContext(ctx, method, body)
	return out, fromStatus(err)
}

// Stats exposes the link's transport counters: those of the current
// connection plus those of every connection a redial replaced.
func (a *AggregatorClient) Stats() transport.StatsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.C == nil {
		return a.retired
	}
	return addStats(a.retired, a.C.Stats().Snapshot())
}

// addStats folds two connections' counters into one: counts add up, the
// high-water mark is the larger one, and the mean latency is weighted by
// each side's successful calls.
func addStats(x, y transport.StatsSnapshot) transport.StatsSnapshot {
	sum := transport.StatsSnapshot{
		Calls:       x.Calls + y.Calls,
		Failures:    x.Failures + y.Failures,
		Timeouts:    x.Timeouts + y.Timeouts,
		Retries:     x.Retries + y.Retries,
		MaxInFlight: max(x.MaxInFlight, y.MaxInFlight),
	}
	okX, okY := x.Calls-x.Failures, y.Calls-y.Failures
	if ok := okX + okY; ok > 0 {
		sum.AvgLatency = (x.AvgLatency*time.Duration(okX) + y.AvgLatency*time.Duration(okY)) / time.Duration(ok)
	}
	return sum
}

// Challenge runs the Phase II nonce exchange.
func (a *AggregatorClient) Challenge(ctx context.Context, nonce []byte) ([]byte, error) {
	sig, err := a.callRaw(ctx, MethodChallenge, nonce)
	if err != nil {
		return nil, fmt.Errorf("core: challenge %s: %w", a.ID, err)
	}
	return sig, nil
}

// Register admits the party at this aggregator.
func (a *AggregatorClient) Register(ctx context.Context, partyID string) error {
	if _, err := a.callRaw(ctx, MethodRegister, []byte(partyID)); err != nil {
		return fmt.Errorf("core: register at %s: %w", a.ID, err)
	}
	return nil
}

// Upload sends a transformed fragment; index is its partition index,
// carried in the wire header so journals and traces can tell which
// partition a payload belongs to. The server side is idempotent for
// identical retries, so re-sending after an ambiguous failure is safe.
//
// The request is encoded into a pooled buffer sized from the fragment
// (transport.CallSizedContext), so a steady stream of uploads, small or
// large, allocates no request bodies.
func (a *AggregatorClient) Upload(ctx context.Context, round int, partyID string, frag tensor.Vector, index int, weight float64) error {
	req := UploadReq{Round: round, PartyID: partyID, Frag: index, Fragment: frag, Weight: weight}
	if _, err := callAgg[UploadReq, UploadResp](ctx, a, MethodUpload, req, transport.FragmentWireSize(partyID, len(frag))); err != nil {
		return fmt.Errorf("core: upload to %s: %w", a.ID, err)
	}
	return nil
}

// Heartbeat sends a liveness signal; rejoined reports that this heartbeat
// readmitted the (previously evicted) party.
func (a *AggregatorClient) Heartbeat(ctx context.Context, partyID string) (rejoined bool, err error) {
	resp, err := callAgg[HeartbeatReq, HeartbeatResp](ctx, a, MethodHeartbeat, HeartbeatReq{PartyID: partyID}, 0)
	if err != nil {
		return false, fmt.Errorf("core: heartbeat to %s: %w", a.ID, err)
	}
	return resp.Rejoined, nil
}

// Aggregate asks the aggregator to fuse a round. It fails with
// ErrRoundIncomplete while the round has not sealed and ErrRoundAbandoned
// once it never will; a fused round answers nil, so re-driving sync after a
// restart is safe.
func (a *AggregatorClient) Aggregate(ctx context.Context, round int) error {
	_, err := callAgg[AggregateReq, AggregateResp](ctx, a, MethodAggregate, AggregateReq{Round: round}, 0)
	if err != nil {
		return fmt.Errorf("core: aggregate at %s: %w", a.ID, err)
	}
	return nil
}

// Download fetches the aggregated fragment. A response fused for any
// other round is an error, never a fragment of the wrong model.
func (a *AggregatorClient) Download(ctx context.Context, round int, partyID string) (tensor.Vector, error) {
	resp, err := callAgg[DownloadReq, DownloadResp](ctx, a, MethodDownload, DownloadReq{Round: round, PartyID: partyID}, 0)
	if err != nil {
		return nil, fmt.Errorf("core: download from %s: %w", a.ID, err)
	}
	if resp.Round != round {
		tensor.PutVector(resp.Fragment)
		return nil, fmt.Errorf("core: download from %s: response is for round %d, not %d", a.ID, resp.Round, round)
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
