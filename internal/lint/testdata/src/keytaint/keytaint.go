// Package core poses as deta/internal/core for the keytaint fixture. Key
// material (here: rng.DeriveSeed output and values derived from it) must
// never reach formatting, logging, error strings, the journal, or any
// wire message except the AP PermKey exchange. The fixture exercises
// intraprocedural flow with strong updates, interprocedural parameter /
// return / field propagation, sanitizers, and the wire-type exemption.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"

	"deta/internal/journal"
	"deta/internal/rng"
	"deta/internal/transport"
)

// UploadReq is a module wire message: carrying key bytes in it is a leak.
type UploadReq struct {
	Party   string
	Payload []byte
}

// PermKeyResp is named like a key exchange, but no wire struct is exempt
// by its name.
type PermKeyResp struct {
	Key []byte
}

// badDirectLog formats a freshly derived subkey.
func badDirectLog(master []byte, round []byte) {
	seed := rng.DeriveSeed(master, round)
	log.Printf("derived seed %x", seed) // want keytaint
}

// badErrorString wraps key bytes into an error a caller will log.
func badErrorString(master []byte) error {
	seed := rng.DeriveSeed(master)
	return fmt.Errorf("bad seed %x", seed) // want keytaint
}

// badErrorsNew is the errors.New flavor of the same leak.
func badErrorsNew(master []byte) error {
	seed := rng.DeriveSeed(master)
	return errors.New(string(seed)) // want keytaint
}

// goodFingerprint logs the sanctioned digest: rng.Fingerprint is a
// sanitizer, so the result is clean.
func goodFingerprint(master []byte) {
	seed := rng.DeriveSeed(master)
	log.Printf("derived seed fp=%s", rng.Fingerprint(seed))
}

// goodLen: the length of a key is not the key.
func goodLen(master []byte) error {
	seed := rng.DeriveSeed(master)
	if len(seed) != 32 {
		return fmt.Errorf("seed has %d bytes, want 32", len(seed))
	}
	return nil
}

// goodStrongUpdate overwrites the tainted variable with a clean digest;
// the reassignment kills the taint on every path that reaches the log.
func goodStrongUpdate(master []byte) {
	s := string(rng.DeriveSeed(master))
	s = rng.Fingerprint([]byte("clean"))
	log.Printf("state %s", s)
}

// badBranchJoin taints s on only one branch; the may-analysis keeps the
// fact alive through the join.
func badBranchJoin(cond bool, master []byte) {
	s := "clean"
	if cond {
		s = string(rng.DeriveSeed(master))
	}
	log.Printf("state %s", s) // want keytaint
}

// logBytes is an unexported helper: taint enters through its parameter
// from badViaHelper below, so the sink inside it fires.
func logBytes(b []byte) {
	fmt.Printf("bytes: %x\n", b) // want keytaint
}

// badViaHelper leaks through a helper call (parameter summary).
func badViaHelper(master []byte) {
	logBytes(rng.DeriveSeed(master))
}

// derive returns key material; callers inherit the taint (return summary).
func derive(master []byte) []byte {
	return rng.DeriveSeed(master, []byte("round"))
}

// badViaReturn leaks a key obtained through a module function's return.
func badViaReturn(master []byte) {
	k := derive(master)
	log.Printf("key %x", k) // want keytaint
}

// holder stores key material in a field; the store taints the field for
// every later read, module-wide.
type holder struct {
	k []byte
}

func (h *holder) set(master []byte) {
	h.k = rng.DeriveSeed(master)
}

// badViaField reads the tainted field.
func (h *holder) badViaField() error {
	return fmt.Errorf("holder state %x", h.k) // want keytaint
}

// badJournal writes key bytes into the plaintext WAL.
func badJournal(j *journal.Journal, master []byte) error {
	seed := rng.DeriveSeed(master)
	return j.Append(1, seed) // want keytaint
}

// badWireComposite builds a non-exempt wire message around key bytes.
func badWireComposite(master []byte) UploadReq {
	seed := rng.DeriveSeed(master)
	return UploadReq{Party: "p1", Payload: seed} // want keytaint
}

// badWireFieldStore smuggles the key in after construction.
func badWireFieldStore(master []byte) UploadReq {
	var req UploadReq
	req.Payload = rng.DeriveSeed(master) // want keytaint
	return req
}

// badPermKeyResp puts key bytes in a wire struct whose name once exempted
// it: the AP's key response is a raw handler return, acknowledged in code.
func badPermKeyResp(master []byte) PermKeyResp {
	return PermKeyResp{Key: rng.DeriveSeed(master)} // want keytaint
}

// goodCleanWire: no key material anywhere near the message.
func goodCleanWire(update []byte) UploadReq {
	return UploadReq{Party: "p2", Payload: update}
}

// keyed holds key material next to plain metadata.
type keyed struct {
	n int
	k []byte
}

func newKeyed(master []byte) *keyed {
	return &keyed{n: 32, k: rng.DeriveSeed(master)}
}

// goodNonCarrierField: a numeric field of a key-derived struct is a
// length, not the key — base taint must not bleed through it.
func goodNonCarrierField(master []byte) error {
	d := newKeyed(master)
	return fmt.Errorf("keyed holds %d bytes", d.n)
}

// badCarrierField: the byte-slice field of the same struct IS the key.
func badCarrierField(master []byte) error {
	d := newKeyed(master)
	return fmt.Errorf("keyed state %x", d.k) // want keytaint
}

// badClosureLaunder launders the key through a returned closure: the
// literal captures the tainted seed, so the sink inside its body fires
// even though the enclosing function never touches a sink itself.
func badClosureLaunder(master []byte) func() {
	seed := rng.DeriveSeed(master)
	return func() {
		log.Printf("deferred seed %x", seed) // want keytaint
	}
}

// badClosureGo leaks through a goroutine body — the classic fire-and-
// forget logging closure.
func badClosureGo(master []byte) {
	seed := rng.DeriveSeed(master)
	go func() {
		fmt.Printf("worker seed %x\n", seed) // want keytaint
	}()
}

// badClosureNested: two literals deep; the recursion carries the captured
// fact through both.
func badClosureNested(master []byte) func() func() error {
	seed := rng.DeriveSeed(master)
	return func() func() error {
		return func() error {
			return errors.New(string(seed)) // want keytaint
		}
	}
}

// goodClosureClean: the closure captures nothing tainted and logs a
// sanitized digest; no report.
func goodClosureClean(master []byte) func() {
	fp := rng.Fingerprint(rng.DeriveSeed(master))
	return func() {
		log.Printf("seed fp=%s", fp)
	}
}

// goodClosureSanitized: the tainted variable is strongly updated to a
// clean value BEFORE the literal is created, so the closure captures the
// sanitized state — the creation-point fact, not a whole-function union,
// seeds the closure body.
func goodClosureSanitized(master []byte) func() {
	s := string(rng.DeriveSeed(master))
	s = rng.Fingerprint([]byte("clean"))
	return func() {
		log.Printf("state %s", s)
	}
}

// badDeepChain passes a key down twenty helpers declared callee-first,
// so a source-order sweep would move it one level per round; the sink
// at the bottom must still fire.
func chainLog20(b []byte)        { log.Printf("chain %x", b) } // want keytaint
func chainLog19(b []byte)        { chainLog20(b) }
func chainLog18(b []byte)        { chainLog19(b) }
func chainLog17(b []byte)        { chainLog18(b) }
func chainLog16(b []byte)        { chainLog17(b) }
func chainLog15(b []byte)        { chainLog16(b) }
func chainLog14(b []byte)        { chainLog15(b) }
func chainLog13(b []byte)        { chainLog14(b) }
func chainLog12(b []byte)        { chainLog13(b) }
func chainLog11(b []byte)        { chainLog12(b) }
func chainLog10(b []byte)        { chainLog11(b) }
func chainLog9(b []byte)         { chainLog10(b) }
func chainLog8(b []byte)         { chainLog9(b) }
func chainLog7(b []byte)         { chainLog8(b) }
func chainLog6(b []byte)         { chainLog7(b) }
func chainLog5(b []byte)         { chainLog6(b) }
func chainLog4(b []byte)         { chainLog5(b) }
func chainLog3(b []byte)         { chainLog4(b) }
func chainLog2(b []byte)         { chainLog3(b) }
func chainLog1(b []byte)         { chainLog2(b) }
func badDeepChain(master []byte) { chainLog1(rng.DeriveSeed(master)) }

// badHandlerReturn answers a raw RPC with a derived key: what a handler
// registered with Server.Handle returns is a wire message.
func badHandlerReturn(srv *transport.Server, master []byte) {
	srv.Handle("leak", func(body []byte) ([]byte, error) {
		return rng.DeriveSeed(master, body), nil // want keytaint
	})
}

// badCallBody sends a derived key as a raw request body.
func badCallBody(ctx context.Context, c *transport.Client, master []byte) error {
	_, err := c.CallContext(ctx, "leak", rng.DeriveSeed(master)) // want keytaint
	return err
}

// goodAckHandlerReturn returns a key acknowledged in code, the way the AP
// acknowledges its PermKey response.
func goodAckHandlerReturn(srv *transport.Server, master []byte) {
	srv.Handle("key", func(body []byte) ([]byte, error) {
		//lint:ignore keytaint the fixture's sanctioned key response
		return rng.DeriveSeed(master), nil
	})
}

// goodCleanCall: a request body and a response with no key material.
func goodCleanCall(ctx context.Context, srv *transport.Server, c *transport.Client, id string) error {
	srv.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	_, err := c.CallContext(ctx, "echo", []byte(id))
	return err
}
