package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"deta/internal/transport"
)

// callStatus drives one RPC through callAgg against a server whose handler
// (registered through handle, like every ServeAggregator method) fails
// with fail(round).
func callStatus(t *testing.T, fail func(round int) error) func(round int) error {
	t.Helper()
	srv := transport.NewServer()
	handle(srv, MethodAggregate, func(r AggregateReq) (AggregateResp, error) {
		return AggregateResp{}, fail(r.Round)
	})
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client := dialClient(t, ln, "agg-status")
	return func(round int) error {
		return client.Aggregate(context.Background(), round)
	}
}

// TestStatusCodesRoundTrip: every sentinel in the code table survives the
// RPC boundary as itself under errors.Is — and as no other sentinel —
// however the handler wrapped it; an unclassified error and an unknown
// code stay plain RemoteErrors.
func TestStatusCodesRoundTrip(t *testing.T) {
	for _, want := range []error{ErrNotRegistered, ErrRoundIncomplete, ErrNotAggregated,
		ErrDuplicateUpload, ErrStragglerCut, ErrRoundAbandoned} {
		found := false
		for _, s := range statusCodes {
			found = found || s == want
		}
		if !found {
			t.Errorf("sentinel %q has no status code", want)
		}
	}

	call := callStatus(t, func(code int) error {
		switch {
		case code == 0:
			return errors.New("plain failure")
		case code < len(statusCodes):
			return fmt.Errorf("handler context %d: %w", code, statusCodes[code])
		}
		return &transport.StatusError{Code: uint8(code), Err: errors.New("verdict of a newer peer")}
	})
	for code := 1; code < len(statusCodes); code++ {
		err := call(code)
		for other := 1; other < len(statusCodes); other++ {
			if got := errors.Is(err, statusCodes[other]); got != (other == code) {
				t.Errorf("code %d: errors.Is(%v, %q) = %v", code, err, statusCodes[other], got)
			}
		}
		var re *transport.RemoteError
		if !errors.As(err, &re) || int(re.Code) != code {
			t.Errorf("code %d: err %v lost its RemoteError", code, err)
		}
	}
	for _, code := range []int{0, len(statusCodes), 255} {
		err := call(code)
		var re *transport.RemoteError
		if !errors.As(err, &re) || int(re.Code) != code {
			t.Fatalf("code %d: err = %v, want a RemoteError carrying it", code, err)
		}
		for other := 1; other < len(statusCodes); other++ {
			if errors.Is(err, statusCodes[other]) {
				t.Errorf("code %d matched sentinel %q", code, statusCodes[other])
			}
		}
	}
}

// TestErrorTextCannotSteerFleet is the regression for classifying remote
// errors by substring: ErrNotRegistered echoes the party ID, so a party
// named after another error's text used to turn its rejection into that
// error's verdict — "round abandoned" into skip-the-round, "not
// aggregated" into polling until the deadline.
func TestErrorTextCannotSteerFleet(t *testing.T) {
	node := newProvisionedNode(t, testAP(t), "agg-steer")
	// The poll clock never advances: a DownloadAll that decides to poll
	// can only end at the context deadline.
	fleet := &Fleet{Clients: []*AggregatorClient{serveNode(t, node)}, Clock: NewFakeClock(time.Unix(1_000_000, 0))}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	err := fleet.UploadAll(ctx, 1, "round abandoned", testFrags(1), 1)
	if !errors.Is(err, ErrNotRegistered) || errors.Is(err, ErrRoundAbandoned) {
		t.Errorf("upload as %q: err = %v, want ErrNotRegistered and not ErrRoundAbandoned", "round abandoned", err)
	}
	_, err = fleet.DownloadAll(ctx, 1, "not aggregated", nil)
	if !errors.Is(err, ErrNotRegistered) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("download as %q: err = %v, want a prompt ErrNotRegistered", "not aggregated", err)
	}
}
