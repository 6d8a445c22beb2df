// The deadline-aware retention sweeper. The paper's storage-limitation
// duty ("the time to live ... can be used to implement the right to be
// forgotten", §2) is a runtime property with deadlines: data expired at T
// must actually be erased near T, not whenever someone happens to call
// SweepExpired. Three pieces deliver that here:
//
//   - a due-index (dueIndex): per subject shard, the earliest known
//     retention deadline of every subject with TTL-carrying records. DBFS
//     feeds it through the expiry notifier on every membrane write, so the
//     index is maintained at the exact point a deadline enters the system.
//   - scoped sweeps: SweepExpired consults the index and scans only the
//     subjects that are actually due — shards with no due records take no
//     shard lock at all (dbfs.ShardScans proves it). The first sweep is a
//     full priming pass that scans everything and seeds exact deadlines.
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
	"repro/internal/ded"
	"repro/internal/ps"
	"repro/internal/simclock"
)

// dueIndex tracks, per subject shard, the earliest known retention
// deadline of each subject. Entries are conservative: they are never later
// than the subject's true earliest deadline (a stale-early entry costs one
// wasted scan, never a missed deadline). Notes arrive from the DBFS expiry
// notifier under the subject's shard write lock, so the per-shard mutexes
// here must stay leaf locks: the index never calls into the store.
type dueIndex struct {
	// kick is the engine sweeper's Loop.Kick, wired once by newSweeper: a
	// non-blocking nudge, safe under the caller's shard lock.
	kick func()

	// shardOf and shards mirror the store's subject-shard geometry (count
	// and hash), fixed at construction — see newDueIndex.
	shardOf func(subjectID string) uint32
	shards  []dueShard
}

// newDueIndex builds an index with nshards shards routed by shardOf —
// always the owning store's geometry, so "shards with no due records take
// no shard lock" stays exact whatever shard count the store was mounted
// with.
func newDueIndex(nshards int, shardOf func(string) uint32) *dueIndex {
	return &dueIndex{shardOf: shardOf, shards: make([]dueShard, nshards)}
}

// dueShard is one shard's slice of the index.
type dueShard struct {
	mu sync.Mutex
	// subjects maps subject ID -> earliest known retention deadline.
	subjects map[string]time.Time
	// earliest caches the minimum of subjects (zero = none).
	earliest time.Time
	// scanning marks a sweep pass in flight over this shard; fresh
	// collects deadlines noted during the scan, so install never loses a
	// deadline that raced the scan.
	scanning bool
	fresh    map[string]time.Time
}

// dueScan is one shard's scan work within a sweep pass.
type dueScan struct {
	shard    uint32
	subjects []string
}

// note min-merges a subject's retention deadline — the DBFS expiry
// notifier lands here on every membrane write. When the shard's earliest
// deadline moves down, the sweeper is kicked so it can re-aim its sleep.
func (ix *dueIndex) note(subjectID string, expiry time.Time) {
	ix.noteDeadline(subjectID, expiry, true)
}

// rearm is note without the sweeper kick — used when a sweep pass
// re-arms a record whose delete failed. The deadline is necessarily in
// the past, so a kick would cancel the loop's Interval backoff and spin
// failing passes back to back; the re-armed record is retried on the
// next regular wakeup instead.
func (ix *dueIndex) rearm(subjectID string, expiry time.Time) {
	ix.noteDeadline(subjectID, expiry, false)
}

func (ix *dueIndex) noteDeadline(subjectID string, expiry time.Time, kick bool) {
	d := &ix.shards[ix.shardOf(subjectID)]
	d.mu.Lock()
	if d.scanning {
		if cur, ok := d.fresh[subjectID]; !ok || expiry.Before(cur) {
			if d.fresh == nil {
				d.fresh = make(map[string]time.Time)
			}
			d.fresh[subjectID] = expiry
		}
	}
	lowered := false
	if cur, ok := d.subjects[subjectID]; !ok || expiry.Before(cur) {
		if d.subjects == nil {
			d.subjects = make(map[string]time.Time)
		}
		d.subjects[subjectID] = expiry
		if d.earliest.IsZero() || expiry.Before(d.earliest) {
			d.earliest = expiry
			lowered = true
		}
	}
	d.mu.Unlock()
	if lowered && kick {
		ix.kick()
	}
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

// recomputeEarliestLocked refreshes the cached shard minimum; caller holds
// d.mu.
func (d *dueShard) recomputeEarliestLocked() {
	var min time.Time
	for _, dl := range d.subjects {
		if min.IsZero() || dl.Before(min) {
			min = dl
		}
	}
	d.earliest = min
}

// beginDue collects the scan work for a scoped pass at instant now — per
// shard, the subjects whose deadline strictly precedes now (ExpiredAt is
// strict-after, so a deadline exactly at now has not expired yet) — and
// marks those shards scanning. Shards with nothing due are not touched.
func (ix *dueIndex) beginDue(now time.Time) []dueScan {
	var scans []dueScan
	for sh := range ix.shards {
		d := &ix.shards[sh]
		d.mu.Lock()
		if d.earliest.IsZero() || !d.earliest.Before(now) {
			d.mu.Unlock()
			continue
		}
		var subs []string
		for s, dl := range d.subjects {
			if dl.Before(now) {
				subs = append(subs, s)
			}
		}
		if len(subs) == 0 {
			// Defensive: a stale cached minimum; refresh it.
			d.recomputeEarliestLocked()
			d.mu.Unlock()
			continue
		}
		sort.Strings(subs)
		d.scanning = true
		d.fresh = nil
		scans = append(scans, dueScan{shard: uint32(sh), subjects: subs})
		d.mu.Unlock()
	}
	return scans
}

// beginFull marks every shard scanning for a priming pass.
func (ix *dueIndex) beginFull() {
	for sh := range ix.shards {
		d := &ix.shards[sh]
		d.mu.Lock()
		d.scanning = true
		d.fresh = nil
		d.mu.Unlock()
	}
}

// abort clears the scanning marks after a failed pass, leaving the index
// contents untouched (conservative: everything stays due).
func (ix *dueIndex) abort() {
	for sh := range ix.shards {
		d := &ix.shards[sh]
		d.mu.Lock()
		d.scanning = false
		d.fresh = nil
		d.mu.Unlock()
	}
}

// installDue applies a scoped pass's results: for each scanned subject the
// exact recomputed next deadline (zero = none left), min-merged with any
// deadline noted during the scan. Unscanned subjects keep their entries
// (notes during the scan updated them directly).
func (ix *dueIndex) installDue(scans []dueScan, next []map[string]time.Time) {
	for i, sc := range scans {
		d := &ix.shards[sc.shard]
		d.mu.Lock()
		for _, s := range sc.subjects {
			v := next[i][s]
			if f, ok := d.fresh[s]; ok && (v.IsZero() || f.Before(v)) {
				v = f
			}
			if v.IsZero() {
				delete(d.subjects, s)
			} else {
				d.subjects[s] = v
			}
		}
		d.scanning = false
		d.fresh = nil
		d.recomputeEarliestLocked()
		d.mu.Unlock()
	}
}

// installFull replaces the whole index with a priming pass's results,
// min-merged with everything noted during the scan.
func (ix *dueIndex) installFull(next map[uint32]map[string]time.Time) {
	for sh := range ix.shards {
		d := &ix.shards[sh]
		d.mu.Lock()
		m := next[uint32(sh)]
		if m == nil {
			m = make(map[string]time.Time)
		}
		for s, f := range d.fresh {
			if cur, ok := m[s]; !ok || f.Before(cur) {
				m[s] = f
			}
		}
		d.subjects = m
		d.scanning = false
		d.fresh = nil
		d.recomputeEarliestLocked()
		d.mu.Unlock()
	}
}

// sweepTarget is one expired record found by a scan.
type sweepTarget struct {
	pdid    string
	subject string
	expiry  time.Time
}

// sweepPassInfo describes the shape of one completed sweep pass.
type sweepPassInfo struct {
	full            bool
	shardsScanned   int
	subjectsScanned int
}

// sweepOnce runs one sweep pass: the scoped (or, the first time, the
// priming) scan, the batched deletion of every expired record found, and
// the index install. Caller semantics match the public SweepExpired.
func (e *Engine) sweepOnce() ([]string, sweepPassInfo, error) {
	e.sweepMu.Lock()
	defer e.sweepMu.Unlock()
	store, tok := e.d.Store(), e.d.Token()
	now := e.clock.Now()
	workers := e.workerCount()

	var info sweepPassInfo
	var scans []dueScan
	if !e.swept {
		// Priming pass: scan every subject to seed exact deadlines. Mark
		// every shard scanning BEFORE listing, so a membrane written
		// between the listing and the install lands in the fresh-note
		// merge instead of being wiped by installFull's map replacement.
		info.full = true
		e.due.beginFull()
		subjects, err := store.Subjects(tok)
		if err != nil {
			e.due.abort()
			return nil, info, fmt.Errorf("rights: sweep: %w", err)
		}
		byShard := make(map[uint32][]string)
		for _, s := range subjects {
			sh := store.ShardOf(s)
			byShard[sh] = append(byShard[sh], s)
		}
		shs := make([]uint32, 0, len(byShard))
		for sh := range byShard {
			shs = append(shs, sh)
		}
		sort.Slice(shs, func(i, j int) bool { return shs[i] < shs[j] })
		for _, sh := range shs {
			scans = append(scans, dueScan{shard: sh, subjects: byShard[sh]})
		}
	} else {
		scans = e.due.beginDue(now)
	}
	info.shardsScanned = len(scans)
	for _, sc := range scans {
		info.subjectsScanned += len(sc.subjects)
	}

	// Scan phase: per due shard, list and fetch only the due subjects'
	// records, collecting the expired ones and each subject's next
	// deadline. Shards (and subjects) not in scans are never locked.
	targets := make([][]sweepTarget, len(scans))
	next := make([]map[string]time.Time, len(scans))
	err := ded.ForEachIndexed(len(scans), workers, func(i int) error {
		sc := scans[i]
		nx := make(map[string]time.Time)
		for _, subject := range sc.subjects {
			pdids, err := store.ListBySubject(tok, subject)
			if err != nil {
				return err
			}
			if len(pdids) == 0 {
				continue
			}
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
					dl := m.CreatedAt.Add(m.TTL)
					if cur, ok := nx[subject]; !ok || dl.Before(cur) {
						nx[subject] = dl
					}
				}
			}
		}
		next[i] = nx
		return nil
	})
	if err != nil {
		e.due.abort()
		return nil, info, fmt.Errorf("rights: sweep: %w", err)
	}
	if e.sweepScanHook != nil {
		e.sweepScanHook()
	}

	// Delete phase: one maintenance batch on the DED executor. A failed
	// delete keeps partial progress and re-arms the record's deadline so
	// the next pass retries it.
	var flat []sweepTarget
	for _, list := range targets {
		flat = append(flat, list...)
	}
	reqs := make([]ps.InvokeRequest, len(flat))
	for i, t := range flat {
		reqs[i] = ps.InvokeRequest{Processing: builtins.DeleteName, PDRef: t.pdid}
	}
	var deleted []string
	var failed []sweepTarget
	var firstErr error
	for i, item := range e.ps.InvokeBatch(reqs, workers) {
		if item.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rights: sweep %s: %w", flat[i].pdid, item.Err)
			}
			failed = append(failed, flat[i])
			continue
		}
		deleted = append(deleted, flat[i].pdid)
	}

	if info.full {
		nm := make(map[uint32]map[string]time.Time, len(scans))
		for i, sc := range scans {
			nm[sc.shard] = next[i]
		}
		e.due.installFull(nm)
		e.swept = true
	} else {
		e.due.installDue(scans, next)
	}
	for _, t := range failed {
		e.due.rearm(t.subject, t.expiry)
	}
	sort.Strings(deleted)
	return deleted, info, firstErr
}

// SweeperStats counts the background sweeper's activity.
type SweeperStats struct {
	// Passes counts completed sweep passes; FullPasses the priming
	// subset. Errors counts passes that returned an error.
	Passes     uint64
	FullPasses uint64
	Errors     uint64
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
	if info.full {
		sw.stats.FullPasses++
	}
	if err != nil {
		sw.stats.Errors++
	}
	sw.stats.Deleted += uint64(len(deleted))
	sw.stats.ShardsScanned += uint64(info.shardsScanned)
	sw.stats.SubjectsScanned += uint64(info.subjectsScanned)
	sw.stats.LastPass = start
}
