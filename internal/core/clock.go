package core

import (
	"sync"
	"time"
)

// Clock abstracts time for the round-lifecycle subsystem. Production code
// runs on SystemClock; tests inject a FakeClock so every deadline, grace
// window, and liveness threshold is exercised deterministically — no
// time.Sleep-driven assertions anywhere.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// SystemClock is the wall-clock Clock every component defaults to when no
// clock is injected.
var SystemClock Clock = systemClock{}

// orSystem resolves an un-injected (nil) clock to SystemClock.
func orSystem(c Clock) Clock {
	if c == nil {
		return SystemClock
	}
	return c
}

// FakeClock is a deterministic Clock for tests: time moves only when
// Advance is called (or, with SetAutoAdvance, by a fixed step on every Now
// read, which makes latency accounting observable without sleeping).
// Safe for concurrent use.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	step    time.Duration
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock frozen at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake time, first applying the auto-advance step if one
// is configured.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.step > 0 {
		c.advanceLocked(c.step)
	}
	return c.now
}

// After returns a channel that fires when the fake time passes now+d via
// Advance (immediately for d <= 0).
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the fake time forward by d, firing any After waiters whose
// deadline has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(d)
}

// SetAutoAdvance makes every Now call advance the clock by step first
// (0 disables). Latency accounting measured as Now()-Now() then reads as
// exactly step per interval — deterministic, sleep-free.
func (c *FakeClock) SetAutoAdvance(step time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = step
}

func (c *FakeClock) advanceLocked(d time.Duration) {
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now // buffered; never blocks
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}
