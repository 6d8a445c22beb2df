// Package admission implements load control for the Processing Store —
// the "heavy traffic" half of the north star. rgpdOS's GDPR guarantees are
// runtime properties: purposes are only enforced on invocations that
// actually execute, and retention deadlines are only met if the machine is
// not drowning in a backlog. The admission controller therefore bounds
// what ps_invoke accepts instead of queueing without limit, and rejects
// the excess explicitly — a rejected invocation is a visible, typed
// outcome the caller can retry, never a silent drop and never an unbounded
// latency tail.
//
// Two mechanisms compose, both checked at submission time:
//
//   - a bounded admission queue: at most MaxPending invocations may be
//     admitted-but-unfinished at once (queued or running on the DED
//     executor). Beyond that, Admit fails with ErrQueueFull.
//   - per-purpose token buckets: each registered purpose may carry a
//     rate limit (tokens/sec with a burst bound), keyed by the purpose
//     registry in the Processing Store. An empty bucket fails Admit with
//     ErrRateLimited.
//
// Both rejection errors wrap ErrOverloaded, so callers shed load with one
// errors.Is check. Refill time comes from a simclock.Clock so tests drive
// the buckets deterministically.
package admission

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/latencyhist"
	"repro/internal/simclock"
)

// Sentinel errors. Both concrete rejections wrap ErrOverloaded.
var (
	// ErrOverloaded is the umbrella rejection: the machine refused to
	// admit the invocation right now. Retry later, with backoff.
	ErrOverloaded = errors.New("admission: overloaded")
	// ErrQueueFull reports the bounded admission queue at capacity.
	ErrQueueFull = fmt.Errorf("%w: admission queue full", ErrOverloaded)
	// ErrRateLimited reports an empty token bucket for the purpose.
	ErrRateLimited = fmt.Errorf("%w: purpose rate limit exceeded", ErrOverloaded)
)

// Options configures a Controller.
type Options struct {
	// MaxPending bounds how many invocations may be admitted but not yet
	// finished (queued or running). Zero or negative means unbounded —
	// the controller still counts depth and latency, it just never
	// rejects on queue depth.
	MaxPending int
	// Clock is the token-bucket refill time source. Nil means the wall
	// clock.
	Clock simclock.Clock
}

// Stats is a snapshot of the controller's counters, surfaced through
// ps.Stats.
type Stats struct {
	// MaxPending echoes the configured queue bound (0 = unbounded).
	MaxPending int
	// Depth is the number of currently admitted-but-unfinished
	// invocations; PeakDepth is its high-water mark.
	Depth     int
	PeakDepth int
	// Admitted / Completed count invocations through the queue;
	// RejectedQueue / RejectedRate count the two rejection paths.
	Admitted      uint64
	Completed     uint64
	RejectedQueue uint64
	RejectedRate  uint64
	// LatencyTotal sums the admit-to-release latency of completed
	// invocations; LatencyMax is the slowest single one. Wall-clock
	// measured by the caller, independent of the refill clock.
	LatencyTotal time.Duration
	LatencyMax   time.Duration
	// LatencyHist buckets completed-invocation latencies by power of two
	// (see internal/latencyhist). Coarse by design — it lets readers of
	// ps.Stats estimate a tail (Quantile, or a windowed p99 via
	// latencyhist.Hist.Delta) without per-sample history.
	LatencyHist latencyhist.Hist
}

// Quantile estimates the q-quantile (q in [0,1], e.g. 0.99) of the
// latencies recorded in the histogram — a thin wrapper over
// latencyhist.Hist.Quantile, which takes each bucket at its upper bound
// (conservative), returns zero when empty, and clamps q to [0,1] (NaN
// counts as 0) so a reported admitted-latency tail never goes undefined.
func (s Stats) Quantile(q float64) time.Duration {
	return s.LatencyHist.Quantile(q)
}

// Rejected reports the total invocations shed by either mechanism.
func (s Stats) Rejected() uint64 { return s.RejectedQueue + s.RejectedRate }

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

	mu         sync.Mutex
	maxPending int
	pending    int
	stats      Stats
	buckets    map[string]*bucket
}

// New builds a Controller.
func New(opts Options) *Controller {
	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	max := opts.MaxPending
	if max < 0 {
		max = 0
	}
	return &Controller{
		clock:      clock,
		maxPending: max,
		buckets:    make(map[string]*bucket),
	}
}

// MaxPending reports the configured queue bound (0 = unbounded).
func (c *Controller) MaxPending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxPending
}

// SetMaxPending changes the queue bound at runtime (n <= 0 means
// unbounded). Lowering the bound below the current depth rejects new
// admissions until enough in-flight invocations release — nothing already
// admitted is cancelled.
func (c *Controller) SetMaxPending(n int) {
	if n < 0 {
		n = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxPending = n
}

// Limit is one purpose's configured rate limit, as reported by Limits.
type Limit struct {
	Purpose    string
	RatePerSec float64
	Burst      float64
}

// Limits snapshots every configured per-purpose rate limit, sorted by
// purpose name.
func (c *Controller) Limits() []Limit {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Limit, 0, len(c.buckets))
	for p, b := range c.buckets {
		out = append(out, Limit{Purpose: p, RatePerSec: b.rate, Burst: b.burst})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Purpose < out[j].Purpose })
	return out
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
// from admission to completion; release keeps the queue depth and the
// latency counters truthful. On rejection the error wraps ErrOverloaded
// (ErrRateLimited or ErrQueueFull) and nothing is held.
//
// Order matters: the rate check runs first so a purpose over its budget
// never consumes queue capacity, and a full queue never burns the
// purpose's tokens.
func (c *Controller) Admit(purpose string) (release func(latency time.Duration), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.buckets[purpose]; ok {
		b.refill(c.clock.Now())
		if b.tokens < 1 {
			c.stats.RejectedRate++
			return nil, fmt.Errorf("%w: purpose %q", ErrRateLimited, purpose)
		}
		if c.maxPending > 0 && c.pending >= c.maxPending {
			// Queue rejection must not consume the token: the purpose
			// did nothing wrong, the machine is just full.
			c.stats.RejectedQueue++
			return nil, fmt.Errorf("%w: %d pending", ErrQueueFull, c.pending)
		}
		b.tokens--
	} else if c.maxPending > 0 && c.pending >= c.maxPending {
		c.stats.RejectedQueue++
		return nil, fmt.Errorf("%w: %d pending", ErrQueueFull, c.pending)
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
	st.MaxPending = c.maxPending
	st.Depth = c.pending
	return st
}
