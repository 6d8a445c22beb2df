// The deadline-aware retention sweeper. The paper's storage-limitation
// duty ("the time to live ... can be used to implement the right to be
// forgotten", §2) is a runtime property with deadlines: data expired at T
// must actually be erased near T, not whenever someone happens to call
// SweepExpired. Three pieces deliver that here:
//
//   - a due-index (dueIndex): per subject shard, the earliest known
//     retention deadline of every subject with TTL-carrying records. New
//     seeds it from the records already stored, and DBFS feeds it through
//     the expiry notifier on every membrane write from then on, so the
//     index is maintained at the exact point a deadline enters the system.
//   - scoped sweeps: every pass takes the subjects that are due out of the
//     index, scans only them, and notes each one's next deadline back —
//     shards with no due records take no shard lock at all (dbfs.ShardScans
//     proves it), from the first pass on.
//   - the Sweeper: a simclock.Loop that sleeps until the earliest deadline
//     (or one Interval, whichever is sooner), wakes on deadline
//     notifications, and fires scoped sweeps. Simulated-clock tests drive
//     it deterministically: a record expired at T is physically deleted by
//     T+Interval — Interval is the grace window — and with exact deadline
//     wakeups usually right at T.
package rights

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/builtins"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/ps"
	"repro/internal/simclock"
)

// dueIndex tracks, per subject shard, the earliest known retention
// deadline of each subject. An entry is never later than its subject's
// true earliest deadline (a stale-early entry costs one wasted scan, never
// a missed deadline), except while the sweep pass that took it out holds
// it. Notes arrive from the DBFS expiry notifier under the subject's shard
// write lock, so the per-shard mutexes here must stay leaf locks: the
// index never calls into the store.
type dueIndex struct {
	// kick is the engine sweeper's Loop.Kick, wired once by newSweeper: a
	// non-blocking nudge, safe under the caller's shard lock.
	kick func()

	// shards follows the store's subject shards (dbfs.ShardOf).
	shards [dbfs.DefaultShards]dueShard
}

// dueShard is one shard's slice of the index.
type dueShard struct {
	mu sync.Mutex
	// subjects maps subject ID -> earliest known retention deadline.
	subjects map[string]time.Time
	// earliest caches the minimum of subjects (zero = none).
	earliest time.Time
}

// note min-merges a subject's retention deadline — the DBFS expiry
// notifier lands here on every membrane write. When the shard's earliest
// deadline moves down, the sweeper is kicked so it can re-aim its sleep.
func (ix *dueIndex) note(subjectID string, expiry time.Time) {
	if ix.put(subjectID, expiry) {
		ix.kick()
	}
}

// put is note without the sweeper kick, reporting whether the shard's
// earliest deadline moved down. The seed and the sweep passes write with
// it: the seed runs before the sweeper can start, a pass never puts back
// a deadline earlier than the one it took, and the loop re-aims after
// every pass anyway — a kick there would cut its post-pass sleep short and
// retry a failing delete at once instead of one Interval later.
func (ix *dueIndex) put(subjectID string, expiry time.Time) bool {
	d := &ix.shards[dbfs.ShardOf(subjectID)]
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.subjects[subjectID]; ok && !expiry.Before(cur) {
		return false
	}
	if d.subjects == nil {
		d.subjects = make(map[string]time.Time)
	}
	d.subjects[subjectID] = expiry
	if d.earliest.IsZero() || expiry.Before(d.earliest) {
		d.earliest = expiry
		return true
	}
	return false
}

// earliestDeadline reports the minimum deadline across all shards.
func (ix *dueIndex) earliestDeadline() (time.Time, bool) {
	var min time.Time
	for i := range ix.shards {
		d := &ix.shards[i]
		d.mu.Lock()
		e := d.earliest
		d.mu.Unlock()
		if !e.IsZero() && (min.IsZero() || e.Before(min)) {
			min = e
		}
	}
	return min, !min.IsZero()
}

// take removes and returns the subjects due at instant now — whose
// deadline strictly precedes now (ExpiredAt is strict-after, so a deadline
// exactly at now has not expired yet) — with the deadlines they had, in
// shard order and sorted within each shard, and counts the shards they
// came from. Shards with nothing due are not locked beyond reading their
// cached minimum, and never reach the store.
func (ix *dueIndex) take(now time.Time) (subjects []string, deadlines []time.Time, shards int) {
	for sh := range ix.shards {
		d := &ix.shards[sh]
		d.mu.Lock()
		if d.earliest.IsZero() || !d.earliest.Before(now) {
			d.mu.Unlock()
			continue
		}
		first := len(subjects)
		for s, dl := range d.subjects {
			if dl.Before(now) {
				subjects = append(subjects, s)
			}
		}
		sort.Strings(subjects[first:])
		d.earliest = time.Time{}
		for _, s := range subjects[first:] {
			deadlines = append(deadlines, d.subjects[s])
			delete(d.subjects, s)
		}
		for _, dl := range d.subjects {
			if d.earliest.IsZero() || dl.Before(d.earliest) {
				d.earliest = dl
			}
		}
		d.mu.Unlock()
		shards++
	}
	return subjects, deadlines, shards
}

// sweepTarget is one expired record found by a scan.
type sweepTarget struct {
	pdid    string
	subject string
	expiry  time.Time
}

// sweepPassInfo describes the shape of one completed sweep pass.
type sweepPassInfo struct {
	shardsScanned   int
	subjectsScanned int
}

// scan lists and fetches the records of subjects, fanned out one subject
// per task over the worker pool. It returns the records expired at now, in
// subject order, and each subject's earliest deadline still ahead of now
// (absent when it has none). Subjects not named are never locked.
func (e *Engine) scan(subjects []string, now time.Time) ([]sweepTarget, map[string]time.Time, error) {
	store, tok := e.d.Store(), e.d.Token()
	targets := make([][]sweepTarget, len(subjects))
	next := make([]time.Time, len(subjects))
	err := ded.ForEachIndexed(len(subjects), e.workerCount(), func(i int) error {
		subject := subjects[i]
		// Erased records keep their retention: an expired tombstone is
		// deleted with its ciphertext.
		live, erased, err := store.ListErased(tok, subject)
		if err != nil {
			return err
		}
		pdids := append(live, erased...)
		if len(pdids) == 0 {
			return nil
		}
		sort.Strings(pdids)
		ms, err := store.GetMembranes(tok, pdids)
		if err != nil {
			return err
		}
		for j, m := range ms {
			if m.ExpiredAt(now) {
				targets[i] = append(targets[i], sweepTarget{
					pdid: pdids[j], subject: subject, expiry: m.CreatedAt.Add(m.TTL),
				})
			} else if m.TTL > 0 && !m.CreatedAt.IsZero() {
				if dl := m.CreatedAt.Add(m.TTL); next[i].IsZero() || dl.Before(next[i]) {
					next[i] = dl
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var flat []sweepTarget
	ahead := make(map[string]time.Time)
	for i, s := range subjects {
		flat = append(flat, targets[i]...)
		if !next[i].IsZero() {
			ahead[s] = next[i]
		}
	}
	return flat, ahead, nil
}

// seedDue fills the due-index from the records already stored: one scan
// of every subject at the zero instant, before which nothing has expired,
// so every TTL-carrying record's deadline comes back as a deadline ahead.
func (e *Engine) seedDue() error {
	subjects, err := e.d.Store().Subjects(e.d.Token())
	if err != nil {
		return err
	}
	_, next, err := e.scan(subjects, time.Time{})
	if err != nil {
		return err
	}
	for s, dl := range next {
		e.due.put(s, dl)
	}
	return nil
}

// sweepOnce runs one sweep pass: it takes the due subjects out of the
// index, scans them, notes each one's next deadline back, and deletes every
// expired record found as one batch. A deadline noted while the pass runs
// lands in the index directly and min-merges with the pass's own notes. A
// failed scan puts every taken deadline back; a failed delete puts back
// its record's deadline — either way the next pass retries. Caller
// semantics match the public SweepExpired.
func (e *Engine) sweepOnce() ([]string, sweepPassInfo, error) {
	e.sweepMu.Lock()
	defer e.sweepMu.Unlock()
	now := e.clock.Now()
	subjects, deadlines, shards := e.due.take(now)
	info := sweepPassInfo{shardsScanned: shards, subjectsScanned: len(subjects)}

	targets, next, err := e.scan(subjects, now)
	if err != nil {
		for i, s := range subjects {
			e.due.put(s, deadlines[i])
		}
		return nil, info, fmt.Errorf("rights: sweep: %w", err)
	}
	for s, dl := range next {
		e.due.put(s, dl)
	}
	if e.sweepScanHook != nil {
		e.sweepScanHook()
	}

	// Delete phase: one maintenance batch on the DED executor. A failed
	// delete keeps partial progress.
	reqs := make([]ps.InvokeRequest, len(targets))
	for i, t := range targets {
		reqs[i] = ps.InvokeRequest{Processing: builtins.DeleteName, PDRef: t.pdid}
	}
	var deleted []string
	var firstErr error
	for i, item := range e.ps.InvokeBatch(reqs, e.workerCount()) {
		if item.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rights: sweep %s: %w", targets[i].pdid, item.Err)
			}
			e.due.put(targets[i].subject, targets[i].expiry)
			continue
		}
		deleted = append(deleted, targets[i].pdid)
	}
	sort.Strings(deleted)
	return deleted, info, firstErr
}

// SweeperStats counts the background sweeper's activity.
type SweeperStats struct {
	// Passes counts completed sweep passes; Errors those that returned
	// an error.
	Passes uint64
	Errors uint64
	// Deleted / ShardsScanned / SubjectsScanned accumulate across passes.
	Deleted         uint64
	ShardsScanned   uint64
	SubjectsScanned uint64
	// LastPass is the start instant of the last completed pass.
	LastPass time.Time
}

// DefaultSweepInterval is the sweeper's pass cadence when New is given
// none.
const DefaultSweepInterval = time.Minute

// Sweeper is the engine's deadline-aware background retention sweeper: a
// simclock.Loop firing scoped SweepExpired passes. Its Interval is the
// grace window of the retention guarantee — a record expired at T is
// physically deleted by T+Interval even if every deadline signal were
// lost, and with the due-index's exact wakeups normally at the first
// instant after T. Every engine has exactly one (Engine.Sweeper), stopped
// until Start.
type Sweeper struct {
	*simclock.Loop
	eng *Engine

	mu    sync.Mutex
	stats SweeperStats
}

// newSweeper builds the engine's sweeper, pacing itself at interval (0 =
// DefaultSweepInterval), and points the due-index's deadline notifications
// at it.
func newSweeper(e *Engine, interval time.Duration) *Sweeper {
	if interval <= 0 {
		interval = DefaultSweepInterval
	}
	sw := &Sweeper{eng: e}
	sw.Loop = simclock.NewLoop(e.clock, interval, sw.pass, sw.due)
	e.due.kick = sw.Kick
	return sw
}

// Stats snapshots the sweeper counters.
func (sw *Sweeper) Stats() SweeperStats {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.stats
}

// due is the first instant strictly after the earliest retention deadline
// (expiry is strict-after).
func (sw *Sweeper) due(time.Time) (time.Time, bool) {
	e, ok := sw.eng.due.earliestDeadline()
	return e.Add(time.Nanosecond), ok
}

// pass runs one sweep and records its outcome.
func (sw *Sweeper) pass(start time.Time, _ bool) {
	deleted, info, err := sw.eng.sweepOnce()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.stats.Passes++
	if err != nil {
		sw.stats.Errors++
	}
	sw.stats.Deleted += uint64(len(deleted))
	sw.stats.ShardsScanned += uint64(info.shardsScanned)
	sw.stats.SubjectsScanned += uint64(info.subjectsScanned)
	sw.stats.LastPass = start
}
