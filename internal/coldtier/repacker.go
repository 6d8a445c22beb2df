package coldtier

// The background repacker: a periodic simclock.Loop that fires repack
// passes on the machine clock. The pass itself lives in dbfs — the
// repacker only owns the counters, so the package stays free of a dbfs
// dependency and core can wire the two together with a closure carrying
// the DED's capability token.

import (
	"sync"
	"time"

	"repro/internal/simclock"
)

// PassStats is what one repack pass over the store reports.
type PassStats struct {
	// Demoted counts records migrated hot → archive this pass; Subjects
	// counts the subject archives rewritten.
	Demoted  int
	Subjects int
	// DedupHits counts parts that content-addressed onto chunks already
	// archived (unchanged records re-demoting after a promotion).
	DedupHits int
	// RawBytes / StoredBytes are the logical bytes demoted this pass and
	// the unique chunk bytes they occupy after dedup (before compression).
	RawBytes    int64
	StoredBytes int64
}

// Target runs one repack pass at the given instant. dbfs.Store's RepackCold
// is the real implementation; core binds it with its token via TargetFunc.
type Target interface {
	RepackPass(now time.Time) (PassStats, error)
}

// TargetFunc adapts a closure to Target.
type TargetFunc func(now time.Time) (PassStats, error)

// RepackPass implements Target.
func (f TargetFunc) RepackPass(now time.Time) (PassStats, error) { return f(now) }

// Stats counts the background repacker's activity.
type Stats struct {
	// Passes counts completed repack passes; Errors the failed subset.
	Passes uint64
	Errors uint64
	// Demoted / DedupHits accumulate the per-pass results.
	Demoted   uint64
	DedupHits uint64
	// LastPass is the start instant of the last completed pass.
	LastPass time.Time
}

// DefaultRepackInterval is the fallback pass cadence when
// Options.Interval is unset.
const DefaultRepackInterval = time.Minute

// Options configures a Repacker.
type Options struct {
	// Interval is the gap between repack passes. Default one minute.
	Interval time.Duration
}

// Repacker is the background demotion loop: every Interval it runs one
// repack pass against its target. The embedded simclock.Loop is its whole
// lifecycle (Start/Stop/Sync/Interval/SetInterval).
type Repacker struct {
	*simclock.Loop
	target Target

	mu    sync.Mutex
	stats Stats
}

// NewRepacker builds a repacker over target on clock. Call Start to run it.
func NewRepacker(clock simclock.Clock, target Target, opts Options) *Repacker {
	rp := &Repacker{target: target}
	rp.Loop = simclock.NewLoop(clock, DefaultRepackInterval, rp.pass, nil)
	rp.SetInterval(opts.Interval)
	return rp
}

// Stats snapshots the repacker counters.
func (rp *Repacker) Stats() Stats {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.stats
}

// pass runs one repack and records its outcome.
func (rp *Repacker) pass(start time.Time, _ bool) {
	st, err := rp.target.RepackPass(start)
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.stats.Passes++
	if err != nil {
		rp.stats.Errors++
	}
	rp.stats.Demoted += uint64(st.Demoted)
	rp.stats.DedupHits += uint64(st.DedupHits)
	rp.stats.LastPass = start
}
