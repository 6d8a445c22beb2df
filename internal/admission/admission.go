// Package admission implements load control for the Processing Store —
// the "heavy traffic" half of the north star. rgpdOS's GDPR guarantees are
// runtime properties: purposes are only enforced on invocations that
// actually execute, and retention deadlines are only met if the machine is
// not drowning in a backlog. The admission controller therefore limits
// what ps_invoke accepts and rejects the excess explicitly — a rejected
// invocation is a visible, typed outcome the caller can retry, never a
// silent drop.
//
// The limit is a per-purpose token bucket, checked at submission time:
// each registered purpose may carry a rate limit (tokens/sec with a burst
// bound), keyed by the purpose registry in the Processing Store. An empty
// bucket fails Admit with ErrRateLimited, which wraps ErrOverloaded, so
// callers shed load with one errors.Is check. Refill time comes from a
// simclock.Clock so tests drive the buckets deterministically. The
// controller also tracks the admitted-but-unfinished depth and the
// admit-to-release latency of every invocation.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/latencyhist"
	"repro/internal/simclock"
)

// Sentinel errors. The concrete rejection wraps ErrOverloaded.
var (
	// ErrOverloaded is the umbrella rejection: the machine refused to
	// admit the invocation right now. Retry later, with backoff.
	ErrOverloaded = errors.New("admission: overloaded")
	// ErrRateLimited reports an empty token bucket for the purpose.
	ErrRateLimited = fmt.Errorf("%w: purpose rate limit exceeded", ErrOverloaded)
)

// Options configures a Controller.
type Options struct {
	// Clock is the token-bucket refill time source. Nil means the wall
	// clock.
	Clock simclock.Clock
}

// Stats is a snapshot of the controller's counters, surfaced through
// ps.Stats.
type Stats struct {
	// Depth is the number of currently admitted-but-unfinished
	// invocations; PeakDepth is its high-water mark.
	Depth     int
	PeakDepth int
	// Admitted / Completed count invocations through the gate;
	// RejectedRate counts the rate-limit rejections.
	Admitted     uint64
	Completed    uint64
	RejectedRate uint64
	// LatencyTotal sums the admit-to-release latency of completed
	// invocations; LatencyMax is the slowest single one. Wall-clock
	// measured by the caller, independent of the refill clock.
	LatencyTotal time.Duration
	LatencyMax   time.Duration
	// LatencyHist buckets completed-invocation latencies by power of two
	// (see internal/latencyhist). Coarse by design — it lets readers of
	// ps.Stats estimate a tail (LatencyHist.Quantile, or a windowed p99
	// via latencyhist.Hist.Delta) without per-sample history.
	LatencyHist latencyhist.Hist
}

// Rejected reports the total invocations shed.
func (s Stats) Rejected() uint64 { return s.RejectedRate }

// bucket is one purpose's token bucket. tokens refills at rate/sec up to
// burst, timed by the controller's clock.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// refill credits the tokens earned since the last refill, capped at burst.
func (b *bucket) refill(now time.Time) {
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = min(b.tokens+b.rate*dt.Seconds(), b.burst)
	}
	b.last = now
}

// Controller is the admission gate in front of ps_invoke. Safe for
// concurrent use.
type Controller struct {
	clock simclock.Clock

	mu      sync.Mutex
	pending int
	stats   Stats
	buckets map[string]*bucket
}

// New builds a Controller.
func New(opts Options) *Controller {
	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Controller{
		clock:   clock,
		buckets: make(map[string]*bucket),
	}
}

// SetPurposeLimit installs (or replaces) the token bucket for a purpose:
// ratePerSec tokens per second, holding at most burst. A rate <= 0 removes
// the limit. A purpose with no limit yet starts with a full bucket, so a
// fresh limit admits one burst immediately. Replacing a limit keeps the
// bucket's tokens — refilled at the old rate up to now, then clamped to the
// new burst — so re-applying the same limit (a config reload) is a no-op
// and never lets the purpose burst again.
func (c *Controller) SetPurposeLimit(purpose string, ratePerSec, burst float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ratePerSec <= 0 {
		delete(c.buckets, purpose)
		return
	}
	if burst < 1 {
		burst = 1
	}
	now := c.clock.Now()
	b, ok := c.buckets[purpose]
	if !ok {
		c.buckets[purpose] = &bucket{rate: ratePerSec, burst: burst, tokens: burst, last: now}
		return
	}
	b.refill(now)
	b.rate, b.burst = ratePerSec, burst
	b.tokens = min(b.tokens, burst)
}

// Admit asks to admit one invocation for the purpose. On success it
// returns a release function that MUST be called exactly once when the
// invocation finishes (however it finishes), with the wall-clock latency
// from admission to completion; release keeps the depth and the
// latency counters truthful. On rejection the error is ErrRateLimited,
// wrapping ErrOverloaded, and nothing is held.
func (c *Controller) Admit(purpose string) (release func(latency time.Duration), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.buckets[purpose]; ok {
		b.refill(c.clock.Now())
		if b.tokens < 1 {
			c.stats.RejectedRate++
			return nil, fmt.Errorf("%w: purpose %q", ErrRateLimited, purpose)
		}
		b.tokens--
	}
	c.pending++
	c.stats.Admitted++
	if c.pending > c.stats.PeakDepth {
		c.stats.PeakDepth = c.pending
	}
	return c.release, nil
}

// release is the completion half of Admit.
func (c *Controller) release(latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending--
	c.stats.Completed++
	c.stats.LatencyTotal += latency
	if latency > c.stats.LatencyMax {
		c.stats.LatencyMax = latency
	}
	c.stats.LatencyHist.Observe(latency)
}

// Snapshot returns the current counters.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Depth = c.pending
	return st
}
