// Package core poses as deta/internal/core for the lockregion fixture.
// The CFG analysis must catch what the old syntactic lockio could not:
// may-held locks after a conditional unlock, helper-held locks, and
// transitive I/O through module calls — while staying quiet about I/O
// after a real release, goroutine spawns, and the sanctioned WAL path.
package core

import (
	"context"
	"net"
	"os"
	"sync"

	"deta/internal/journal"
	"deta/internal/transport"
)

type peer struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
	path string
	j    *journal.Journal
}

// badInline reads from the network inside the lock's inline region.
func (p *peer) badInline(b []byte) (int, error) {
	p.mu.Lock()
	n, err := p.conn.Read(b) // want lockregion
	p.mu.Unlock()
	return n, err
}

// badDeferred holds the lock (deferred unlock) across a network write.
func (p *peer) badDeferred(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn.Write(b) // want lockregion
}

// goodAfterUnlock copies state under the lock and does I/O outside it —
// the pattern the analyzer exists to push code toward.
func (p *peer) goodAfterUnlock() (int, error) {
	p.mu.Lock()
	out := append([]byte(nil), p.buf...)
	p.mu.Unlock()
	return p.conn.Write(out)
}

// badDial blocks every other caller behind one peer's connect latency.
func (p *peer) badDial(addr string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	conn, err := net.Dial("tcp", addr) // want lockregion
	if err != nil {
		return err
	}
	p.conn = conn
	return nil
}

// frag stands in for a fragment upload's request.
type frag []byte

func (f frag) AppendWire(dst []byte) ([]byte, error) { return append(dst, f...), nil }

// ack stands in for its empty response.
type ack struct{}

func (*ack) DecodeWire([]byte) error { return nil }

// badSizedUpload holds the lock across a fragment upload. Seen from this
// package alone transport's bodies are not analyzed, so the I/O table has
// to name the call.
func (p *peer) badSizedUpload(ctx context.Context, c *transport.Client, f frag) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := transport.CallSizedContext[frag, ack](ctx, c, "upload", f, len(f)) // want lockregion
	return err
}

// badBranchMayHold unlocks on only one branch: the write still executes
// with the lock held whenever cond is false. The syntactic analyzer
// closed the region at the first inline Unlock and missed this; the CFG
// join keeps the may-held fact alive.
func (p *peer) badBranchMayHold(cond bool, b []byte) (int, error) {
	p.mu.Lock()
	if cond {
		p.mu.Unlock()
	}
	n, err := p.conn.Write(b) // want lockregion
	if !cond {
		p.mu.Unlock()
	}
	return n, err
}

// goodLoopScoped locks and unlocks inside each iteration; the write after
// the loop runs with the lock released on every path.
func (p *peer) goodLoopScoped(chunks [][]byte) (int, error) {
	for _, c := range chunks {
		p.mu.Lock()
		p.buf = append(p.buf, c...)
		p.mu.Unlock()
	}
	return p.conn.Write(p.buf)
}

// hold acquires the peer lock on behalf of its caller.
func (p *peer) hold() { p.mu.Lock() }

// release drops it.
func (p *peer) release() { p.mu.Unlock() }

// badHelperHeld does I/O inside a lock acquired by a helper — invisible
// to syntactic matching, visible through the lock-effect summary.
func (p *peer) badHelperHeld(b []byte) (int, error) {
	p.hold()
	n, err := p.conn.Write(b) // want lockregion
	p.release()
	return n, err
}

// goodHelperReleased mutates under the helper-held lock and only touches
// the network after the helper releases it.
func (p *peer) goodHelperReleased(b []byte) (int, error) {
	p.hold()
	p.buf = append(p.buf[:0], b...)
	p.release()
	return p.conn.Write(b)
}

// hold2 acquires the peer lock through another helper: the lock-effect
// fixpoint must propagate the acquisition two call levels up.
func (p *peer) hold2() { p.hold() }

// release2 releases it through a helper.
func (p *peer) release2() { p.release() }

// badDeepHelperHeld does I/O inside a lock acquired two helper levels
// down — invisible to a depth-1 summary, visible to the fixpoint.
func (p *peer) badDeepHelperHeld(b []byte) (int, error) {
	p.hold2()
	n, err := p.conn.Write(b) // want lockregion
	p.release2()
	return n, err
}

// goodDeepHelperReleased touches the network only after the deep helper
// chain released the lock.
func (p *peer) goodDeepHelperReleased(b []byte) (int, error) {
	p.hold2()
	p.buf = append(p.buf[:0], b...)
	p.release2()
	return p.conn.Write(b)
}

// badDeferredDeepRelease holds a deep-helper lock with the matching deep
// release deferred; the write still runs with the lock held.
func (p *peer) badDeferredDeepRelease(b []byte) (int, error) {
	p.hold2()
	defer p.release2()
	return p.conn.Write(b) // want lockregion
}

// lockedAppend acquires and releases via helpers internally: its net
// effect is nil at every depth, so callers never inherit a held lock.
func (p *peer) lockedAppend(b []byte) {
	p.hold()
	p.buf = append(p.buf, b...)
	p.release()
}

// goodBalancedDeep calls a helper whose nested lock/unlock cancel; the
// write afterwards runs lock-free.
func (p *peer) goodBalancedDeep(b []byte) (int, error) {
	p.lockedAppend(b)
	return p.conn.Write(p.buf)
}

// flush performs network I/O on its synchronous path.
func (p *peer) flush() (int, error) {
	return p.conn.Write(p.buf)
}

// badTransitive calls a module function that does I/O while holding the
// lock; the I/O summary makes the call site itself the sink.
func (p *peer) badTransitive() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.flush() // want lockregion
}

// badDiskUnderLock couples every caller to local disk latency.
func (p *peer) badDiskUnderLock(data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return os.WriteFile(p.path, data, 0o644) // want lockregion
}

// goodJournalUnderLock is the sanctioned exception: the WAL's
// commit-before-ack MUST append under the round lock (DESIGN.md §9), so
// journal writes never count as I/O here.
func (p *peer) goodJournalUnderLock(rec []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.j.Append(1, rec)
}

// goodGoroutine spawns under the lock; the goroutine runs without it.
func (p *peer) goodGoroutine(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		_, _ = p.conn.Write(b)
	}()
}

// goodEarlyReturn releases on both the early and the fallthrough path
// before any I/O happens.
func (p *peer) goodEarlyReturn(cond bool, b []byte) (int, error) {
	p.mu.Lock()
	if cond {
		p.mu.Unlock()
		return 0, nil
	}
	p.mu.Unlock()
	return p.conn.Write(b)
}

// badDeepChainHeld does disk I/O under a lock taken twenty helpers down
// (declared callee-first): the lock-effect summary must carry the
// acquisition up the whole chain.
func (p *peer) holdDeep20() { p.mu.Lock() }
func (p *peer) holdDeep19() { p.holdDeep20() }
func (p *peer) holdDeep18() { p.holdDeep19() }
func (p *peer) holdDeep17() { p.holdDeep18() }
func (p *peer) holdDeep16() { p.holdDeep17() }
func (p *peer) holdDeep15() { p.holdDeep16() }
func (p *peer) holdDeep14() { p.holdDeep15() }
func (p *peer) holdDeep13() { p.holdDeep14() }
func (p *peer) holdDeep12() { p.holdDeep13() }
func (p *peer) holdDeep11() { p.holdDeep12() }
func (p *peer) holdDeep10() { p.holdDeep11() }
func (p *peer) holdDeep9()  { p.holdDeep10() }
func (p *peer) holdDeep8()  { p.holdDeep9() }
func (p *peer) holdDeep7()  { p.holdDeep8() }
func (p *peer) holdDeep6()  { p.holdDeep7() }
func (p *peer) holdDeep5()  { p.holdDeep6() }
func (p *peer) holdDeep4()  { p.holdDeep5() }
func (p *peer) holdDeep3()  { p.holdDeep4() }
func (p *peer) holdDeep2()  { p.holdDeep3() }
func (p *peer) holdDeep1()  { p.holdDeep2() }

func (p *peer) badDeepChainHeld() error {
	p.holdDeep1()
	defer p.mu.Unlock()
	return os.Remove(p.path) // want lockregion
}
