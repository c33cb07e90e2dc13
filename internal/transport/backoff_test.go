package transport

import (
	"math/rand"
	"testing"
	"time"
)

// Property tests for Backoff.Delay under seeded RNGs: every jittered
// delay stays inside the schedule's hard envelope, and the expected delay
// grows monotonically with the failure count until the cap.

// envelope returns the hard bounds for attempt i: the un-jittered delay
// scaled by (1 ± 0.2).
func envelope(initial, max time.Duration, i int) (lo, hi time.Duration) {
	d := float64(initial)
	for k := 0; k < i && d < float64(max); k++ {
		d *= 2
	}
	if d > float64(max) {
		d = float64(max)
	}
	jitter := 0.2 // a variable, so 1 ± jitter rounds as in delayRand
	return time.Duration(d * (1 - jitter)), time.Duration(d * (1 + jitter))
}

func TestDelayStaysWithinEnvelope(t *testing.T) {
	schedules := []Backoff{
		{}, // zero value: 50ms initial, 2s cap
		{Initial: time.Millisecond, Max: 64 * time.Millisecond},
		{Initial: 5 * time.Millisecond, Max: 5 * time.Millisecond}, // cap == base
	}
	for si, b := range schedules {
		// The effective (defaulted) parameters delayRand uses.
		initial, max := b.Initial, b.Max
		if initial <= 0 {
			initial = 50 * time.Millisecond
		}
		if max <= 0 {
			max = 2 * time.Second
		}
		for seed := int64(1); seed <= 5; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < 24; i++ {
				lo, hi := envelope(initial, max, i)
				for trial := 0; trial < 64; trial++ {
					d := b.delayRand(i, rnd.Float64)
					if d < lo || d > hi {
						t.Fatalf("schedule %d seed %d attempt %d: delay %v outside [%v, %v]",
							si, seed, i, d, lo, hi)
					}
				}
			}
		}
	}
}

// TestDelayGrowsMonotonicallyInExpectation: averaged over many seeded
// samples, the delay after failure i+1 is no smaller than after failure i
// (strictly larger until the cap absorbs the growth).
func TestDelayGrowsMonotonicallyInExpectation(t *testing.T) {
	b := Backoff{Initial: time.Millisecond, Max: 256 * time.Millisecond}
	rnd := rand.New(rand.NewSource(0xDE7A))
	const samples = 2000
	mean := func(i int) float64 {
		var sum float64
		for s := 0; s < samples; s++ {
			sum += float64(b.delayRand(i, rnd.Float64))
		}
		return sum / samples
	}
	prev := mean(0)
	for i := 1; i < 12; i++ {
		cur := mean(i)
		// 2% slack: with jitter 0.2 and 2000 samples the mean's noise is
		// far below the 2x growth signal; at the cap growth flattens to 0.
		if cur < prev*0.98 {
			t.Fatalf("expected delay not monotone: E[delay(%d)]=%v < E[delay(%d)]=%v",
				i, time.Duration(cur), i-1, time.Duration(prev))
		}
		prev = cur
	}
	// The first 8 steps double below the cap, so expectation must have
	// grown by far more than jitter noise overall.
	if first, last := mean(0), mean(8); last < 10*first {
		t.Fatalf("growth too weak: E[delay(0)]=%v, E[delay(8)]=%v", time.Duration(first), time.Duration(last))
	}
}

// TestDelayPublicAPI pins the exported Delay against the same envelope —
// it uses the global RNG, so only the hard bounds are assertable.
func TestDelayPublicAPI(t *testing.T) {
	b := Backoff{Initial: 2 * time.Millisecond, Max: 16 * time.Millisecond}
	for i := 0; i < 10; i++ {
		lo, hi := envelope(2*time.Millisecond, 16*time.Millisecond, i)
		for trial := 0; trial < 32; trial++ {
			if d := b.Delay(i); d < lo || d > hi {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", i, d, lo, hi)
			}
		}
	}
}
