package admission

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestUnboundedNeverRejectsOnDepth: without a rate limit every invocation
// is admitted however deep the gate; release keeps depth and the latency
// counters truthful.
func TestUnboundedNeverRejectsOnDepth(t *testing.T) {
	c := New(Options{})
	releases := make([]func(time.Duration), 100)
	for i := range releases {
		rel, err := c.Admit("p")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		releases[i] = rel
	}
	st := c.Snapshot()
	if st.Depth != 100 || st.PeakDepth != 100 || st.Admitted != 100 || st.Rejected() != 0 {
		t.Fatalf("stats = %+v", st)
	}
	releases[0](3 * time.Millisecond)
	releases[1](5 * time.Millisecond)
	st = c.Snapshot()
	if st.Depth != 98 || st.PeakDepth != 100 || st.Completed != 2 {
		t.Fatalf("stats after releases = %+v", st)
	}
	if st.LatencyTotal != 8*time.Millisecond || st.LatencyMax != 5*time.Millisecond {
		t.Fatalf("latency counters = total %v max %v", st.LatencyTotal, st.LatencyMax)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	clk := simclock.NewSim(simclock.Epoch)
	c := New(Options{Clock: clk})
	c.SetPurposeLimit("scoring", 10, 2) // 10/sec, burst 2

	// The bucket starts full: the burst is admitted, the next is not.
	for i := 0; i < 2; i++ {
		if _, err := c.Admit("scoring"); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	if _, err := c.Admit("scoring"); !errors.Is(err, ErrRateLimited) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-burst err = %v, want ErrRateLimited wrapping ErrOverloaded", err)
	}

	// 100ms at 10/sec refills exactly one token.
	clk.Advance(100 * time.Millisecond)
	if _, err := c.Admit("scoring"); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	if _, err := c.Admit("scoring"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second post-refill admit err = %v", err)
	}

	// Refill caps at the burst, no matter how long the idle gap.
	clk.Advance(time.Hour)
	for i := 0; i < 2; i++ {
		if _, err := c.Admit("scoring"); err != nil {
			t.Fatalf("capped-burst admit %d: %v", i, err)
		}
	}
	if _, err := c.Admit("scoring"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-capped-burst err = %v", err)
	}

	// Other purposes are unlimited.
	if _, err := c.Admit("other"); err != nil {
		t.Fatalf("unlimited purpose: %v", err)
	}
	st := c.Snapshot()
	if st.RejectedRate != 3 {
		t.Fatalf("RejectedRate = %d, want 3", st.RejectedRate)
	}
}

func TestRemoveLimit(t *testing.T) {
	c := New(Options{Clock: simclock.NewSim(simclock.Epoch)})
	c.SetPurposeLimit("p", 1, 1)
	if _, err := c.Admit("p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit("p"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v", err)
	}
	c.SetPurposeLimit("p", 0, 0) // rate <= 0 removes the bucket
	for i := 0; i < 10; i++ {
		if _, err := c.Admit("p"); err != nil {
			t.Fatalf("admit %d after removal: %v", i, err)
		}
	}
}

// TestReplaceLimitKeepsTokens: replacing a purpose's limit keeps its
// bucket's tokens (refilled up to now, clamped to the new burst) instead of
// handing it a fresh full bucket.
func TestReplaceLimitKeepsTokens(t *testing.T) {
	clk := simclock.NewSim(simclock.Epoch)
	c := New(Options{Clock: clk})
	c.SetPurposeLimit("p", 1, 4)
	for i := 0; i < 4; i++ {
		if _, err := c.Admit("p"); err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
	}
	c.SetPurposeLimit("p", 1, 4) // same limit again: still empty
	if _, err := c.Admit("p"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("after re-set: err = %v, want ErrRateLimited", err)
	}
	// Three seconds earn three tokens at the old rate; the new burst of 2
	// clamps them.
	clk.Advance(3 * time.Second)
	c.SetPurposeLimit("p", 10, 2)
	for i := 0; i < 2; i++ {
		if _, err := c.Admit("p"); err != nil {
			t.Fatalf("admit %d after replace: %v", i, err)
		}
	}
	if _, err := c.Admit("p"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third admit after replace: err = %v, want ErrRateLimited", err)
	}
}

func TestQuantileClampsQ(t *testing.T) {
	// A populated histogram: 100 completions in bucket 3 ([8,16)us), 10 in
	// bucket 6 ([64,128)us). Bucket upper bounds: 16us and 128us.
	var s Stats
	s.LatencyHist[3] = 100
	s.LatencyHist[6] = 10
	s.LatencyMax = 100 * time.Microsecond
	lo := 16 * time.Microsecond
	hi := 128 * time.Microsecond
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{-1, lo},         // below range clamps to 0
		{0, lo},          // first bucket's upper bound
		{0.5, lo},        // rank 55 of 110 still in bucket 3
		{0.99, hi},       // rank 108 lands in bucket 6
		{1, hi},          // clamps to the last recorded sample
		{2, hi},          // above range clamps to 1
		{math.NaN(), lo}, // NaN counts as 0, never implementation-defined
	} {
		if got := s.LatencyHist.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Empty stats stay zero whatever q is.
	var empty Stats
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if got := empty.LatencyHist.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}
