package rights

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbfs"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/simclock"
)

// ensureUserType declares the rig's user type if needed.
func (r *rig) ensureUserType(t *testing.T) {
	t.Helper()
	if _, err := r.store.SchemaOf(r.tok, "user"); err != nil {
		r.seedUser(t, "schema-seed", "Schema Seed", 1980)
		if _, err := r.engine.Erase("schema-seed"); err != nil {
			t.Fatal(err)
		}
		// Physically drop the seed so it does not pollute sweep results.
		pdids, err := r.store.ListBySubject(r.tok, "schema-seed")
		if err != nil {
			t.Fatal(err)
		}
		for _, pdid := range pdids {
			if err := r.store.Delete(r.tok, pdid); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// seedWithTTL inserts a user record with an explicit TTL and creation
// instant (zero createdAt = the clock's now).
func (r *rig) seedWithTTL(t *testing.T, subject string, ttl time.Duration, createdAt time.Time) string {
	t.Helper()
	r.ensureUserType(t)
	m := membrane.New("", "user", subject)
	m.TTL = ttl
	m.CreatedAt = createdAt
	m.Consents["purpose3"] = membrane.Grant{Kind: membrane.GrantAll}
	pdid, err := r.store.Insert(r.tok, "user", subject, dbfs.Record{
		"name": dbfs.S("U " + subject), "year_of_birthdate": dbfs.I(1990),
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	return pdid
}

func (r *rig) countRecords(t *testing.T, subject string) int {
	t.Helper()
	pdids, err := r.store.ListBySubject(r.tok, subject)
	if err != nil {
		t.Fatal(err)
	}
	return len(pdids)
}

// startSweeper gives a fresh engine a sweeper with the given grace window
// and starts it.
func startSweeper(e *Engine, interval time.Duration) *Sweeper {
	e.sweeper = newSweeper(e, interval)
	e.sweeper.Start()
	return e.sweeper
}

// waitFor polls cond (real time) until it holds or the deadline passes —
// the join point for asserting the sweeper's autonomous (non-Sync) wakeups.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweeperExpiryOnTickBoundary drives the boundary case of the
// deadline semantics: ExpiredAt is strict-after, so a record whose TTL
// lands exactly on the sweep tick is NOT yet expired at that tick and is
// erased on the first tick after it.
func TestSweeperExpiryOnTickBoundary(t *testing.T) {
	r := newRig(t)
	const ttl = 24 * time.Hour
	r.seedWithTTL(t, "boundary", ttl, time.Time{}) // created at the epoch
	sw := startSweeper(r.engine, time.Hour)
	defer sw.Stop()

	// Exactly at the deadline: not expired, nothing erased.
	r.clock.Advance(ttl)
	sw.Sync()
	if got := r.countRecords(t, "boundary"); got != 1 {
		t.Fatalf("records at exact deadline = %d, want 1 (expiry is strict-after)", got)
	}
	// The first instant after the deadline: erased.
	r.clock.Advance(time.Nanosecond)
	sw.Sync()
	if got := r.countRecords(t, "boundary"); got != 0 {
		t.Fatalf("records one instant past deadline = %d, want 0", got)
	}
	st := sw.Stats()
	if st.Deleted != 1 {
		t.Fatalf("sweeper stats deleted = %d, want 1", st.Deleted)
	}
}

// TestSweeperWakesOnAdvance proves the loop is genuinely ticker-driven off
// the sim clock: advancing past the deadline wakes the sweeper's WaitUntil
// and the record is erased with no Sync (no forced pass) involved.
func TestSweeperWakesOnAdvance(t *testing.T) {
	r := newRig(t)
	r.seedWithTTL(t, "autonomous", time.Hour, time.Time{})
	sw := startSweeper(r.engine, 12*time.Hour)
	defer sw.Stop()

	r.clock.Advance(time.Hour + time.Millisecond)
	waitFor(t, "autonomous deadline sweep", func() bool {
		return r.countRecords(t, "autonomous") == 0
	})
}

// TestSweeperExpiryDuringRunningSweep covers a deadline passing while a
// sweep pass is already in flight: the in-flight pass (snapshotted at its
// start instant) must not delete the record, and the next pass — within
// one grace window — must.
func TestSweeperExpiryDuringRunningSweep(t *testing.T) {
	r := newRig(t)
	pdA := r.seedWithTTL(t, "early", time.Hour, time.Time{})
	r.seedWithTTL(t, "late", 2*time.Hour, time.Time{})

	// One pass (the exact code path the background sweeper drives) whose
	// scan has already snapshotted its instant when "late"'s deadline
	// passes mid-pass.
	fired := false
	r.engine.sweepScanHook = func() {
		if !fired {
			fired = true
			r.clock.Advance(2 * time.Hour) // now well past "late"'s deadline
		}
	}
	r.clock.Advance(time.Hour + time.Nanosecond) // "early" due, "late" not
	deleted, err := r.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("scan hook did not fire")
	}
	if len(deleted) != 1 || deleted[0] != pdA {
		t.Fatalf("in-flight pass deleted %v, want only [%s]", deleted, pdA)
	}
	// "late" expired mid-pass: the snapshot pass must not have deleted it…
	if got := r.countRecords(t, "late"); got != 1 {
		t.Fatalf("late records = %d, want 1 — deleted by the pass that was already running", got)
	}
	r.engine.sweepScanHook = nil

	// …and the sweeper's next pass — within late's grace window — must.
	sw := startSweeper(r.engine, time.Hour)
	defer sw.Stop()
	sw.Sync()
	if got := r.countRecords(t, "late"); got != 0 {
		t.Fatalf("late records after next pass = %d, want 0", got)
	}
}

// TestSweeperAlreadyExpiredInsert covers a subject entering the system
// with retention already run out (backdated CreatedAt): the insert-time
// deadline notification kicks the sweeper, which erases the record without
// any clock movement or forced pass.
func TestSweeperAlreadyExpiredInsert(t *testing.T) {
	r := newRig(t)
	sw := startSweeper(r.engine, 12*time.Hour)
	defer sw.Stop()
	sw.Sync() // a pass on an empty store

	r.clock.Advance(48 * time.Hour)
	// CreatedAt at the epoch with a 1h TTL: expired 47h ago at insert.
	r.seedWithTTL(t, "stale", time.Hour, simclock.Epoch)
	// The pass counts its deletions after making them: join on the count.
	waitFor(t, "kick-driven sweep of an already-expired insert", func() bool {
		return sw.Stats().Deleted == 1
	})
	if got := r.countRecords(t, "stale"); got != 0 {
		t.Fatalf("stale records = %d after the counted sweep, want 0", got)
	}
}

// TestSweeperStopRestartIdempotence: a stopped sweeper erases nothing
// however far the clock moves, and a restarted one sweeps the backlog. (The
// Start/Stop lifecycle itself is simclock.Loop's, tested there.)
func TestSweeperStopRestartIdempotence(t *testing.T) {
	r := newRig(t)
	r.seedWithTTL(t, "first", time.Hour, time.Time{})

	sw := startSweeper(r.engine, time.Hour)
	r.clock.Advance(time.Hour + time.Nanosecond)
	sw.Sync()
	if got := r.countRecords(t, "first"); got != 0 {
		t.Fatalf("first records = %d, want 0", got)
	}
	sw.Stop()

	// While stopped, a record expires; nothing may erase it.
	r.seedWithTTL(t, "second", time.Hour, time.Time{})
	r.clock.Advance(2 * time.Hour)
	if got := r.countRecords(t, "second"); got != 1 {
		t.Fatalf("stopped sweeper erased records: %d left, want 1", got)
	}

	// Restart: the backlog is swept again.
	sw.Start()
	defer sw.Stop()
	sw.Sync()
	if got := r.countRecords(t, "second"); got != 0 {
		t.Fatalf("second records after restart = %d, want 0", got)
	}
}

// sleepSpy is the rig's Sim clock announcing every WaitUntil the sweeper
// loop enters, so a test knows the loop has aimed its sleep.
type sleepSpy struct {
	*simclock.Sim
	entered chan time.Time
}

func (s sleepSpy) WaitUntil(t time.Time, cancel <-chan struct{}) bool {
	s.entered <- t
	return s.Sim.WaitUntil(t, cancel)
}

// TestSweeperSingleLoopKeepsDeadlineWakeups is the regression test for the
// one-kick-slot bug: the due-index had one wakeup slot but every
// StartSweeper minted a new loop, so a second start stole the first's
// wakeups and whichever stopped first cleared the slot for the survivor.
// Now the engine owns one sweeper wired to the index once: start twice,
// stop via the first handle, restart — a deadline lowered while the loop
// sleeps still wakes it, and the pass happens at the deadline, not one
// Interval later.
func TestSweeperSingleLoopKeepsDeadlineWakeups(t *testing.T) {
	r := newRig(t)
	r.ensureUserType(t)
	// The loop goes to sleep a handful of times here; 64 never blocks it.
	spy := sleepSpy{Sim: r.clock, entered: make(chan time.Time, 64)}
	const interval = 12 * time.Hour
	eng, err := New(r.ps, r.d, r.log, spy, interval)
	if err != nil {
		t.Fatal(err)
	}

	first := eng.Sweeper()
	first.Start()
	second := eng.Sweeper()
	second.Start()
	if first != second {
		t.Fatal("a second start minted a second sweeper")
	}
	first.Stop()
	for len(spy.entered) > 0 { // the stopped run's sleeps
		<-spy.entered
	}
	second.Start()
	defer second.Stop()
	select {
	case target := <-spy.entered:
		if want := simclock.Epoch.Add(interval); !target.Equal(want) {
			t.Fatalf("idle sweeper sleeps until %v, want one Interval (%v)", target, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweeper never went to sleep")
	}

	// The loop is asleep for 12h. Only the index's kick can re-aim it at
	// this record's one-hour deadline.
	r.seedWithTTL(t, "late-comer", time.Hour, time.Time{})
	deadline := r.clock.Advance(time.Hour + time.Nanosecond)
	waitFor(t, "sweep at the lowered deadline", func() bool {
		return second.Stats().Deleted == 1
	})
	if got := second.Stats().LastPass; !got.Equal(deadline) {
		t.Fatalf("deleting pass ran at %v, want the deadline instant %v", got, deadline)
	}
}

// TestSweeperGraceWindow is the acceptance property under -race: across a
// staggered population, after any clock advance and completed pass, every
// record whose deadline precedes the pass instant is physically deleted —
// i.e. nothing expired survives a completed sweep, so with passes at most
// one Interval apart every expired record is erased within one grace
// window.
func TestSweeperGraceWindow(t *testing.T) {
	r := newRig(t)
	const n = 12
	type recInfo struct {
		subject  string
		deadline time.Time
	}
	recs := make([]recInfo, n)
	for i := 0; i < n; i++ {
		ttl := time.Duration(i+1) * time.Hour
		subject := fmt.Sprintf("grace-%d", i)
		r.seedWithTTL(t, subject, ttl, time.Time{})
		recs[i] = recInfo{subject: subject, deadline: simclock.Epoch.Add(ttl)}
	}
	sw := startSweeper(r.engine, 30*time.Minute)
	defer sw.Stop()

	for step := 0; step < 2*n; step++ {
		now := r.clock.Advance(30*time.Minute + time.Nanosecond)
		sw.Sync()
		for _, rec := range recs {
			left := r.countRecords(t, rec.subject)
			if rec.deadline.Before(now) && left != 0 {
				t.Fatalf("at %v: %s (deadline %v) still has %d records", now, rec.subject, rec.deadline, left)
			}
			if !rec.deadline.Before(now) && left != 1 {
				t.Fatalf("at %v: %s (deadline %v) erased early (%d records)", now, rec.subject, rec.deadline, left)
			}
		}
	}
	if st := sw.Stats(); st.Deleted != n {
		t.Fatalf("sweeper deleted = %d, want %d", st.Deleted, n)
	}
}

// TestScopedSweepSkipsUntouchedShards checks that a sweep with one due
// subject takes shard locks only on that subject's shard — the other
// subject's shard-scan counter does not move. There is no priming pass:
// the very first sweep is already scoped.
func TestScopedSweepSkipsUntouchedShards(t *testing.T) {
	r := newRig(t)
	subjA := "shard-a-0"
	subjB := subjectOnShard(t, "shard-b", func(sh uint32) bool { return sh != dbfs.ShardOf(subjA) })
	pdA := r.seedWithTTL(t, subjA, time.Hour, time.Time{})
	r.seedWithTTL(t, subjB, 1000*time.Hour, time.Time{})

	r.clock.Advance(time.Hour + time.Nanosecond) // only subjA due
	assertScopedSweep(t, r, subjA, pdA)
	if got := r.countRecords(t, subjB); got != 1 {
		t.Fatalf("subjB records = %d, want 1", got)
	}
}

// subjectOnShard returns the first "<prefix>-<n>" subject whose shard
// satisfies want.
func subjectOnShard(t *testing.T, prefix string, want func(uint32) bool) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if cand := fmt.Sprintf("%s-%d", prefix, i); want(dbfs.ShardOf(cand)) {
			return cand
		}
	}
	t.Fatal("no subject on a wanted shard")
	return ""
}

// assertScopedSweep runs one SweepExpired that must delete exactly pdid,
// subject's one due record, and scan-lock no shard but subject's.
func assertScopedSweep(t *testing.T, r *rig, subject, pdid string) {
	t.Helper()
	before := r.store.ShardScans()
	deleted, err := r.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != pdid {
		t.Fatalf("scoped sweep deleted %v, want [%s]", deleted, pdid)
	}
	after := r.store.ShardScans()
	due := dbfs.ShardOf(subject)
	if after[due] <= before[due] {
		t.Fatalf("due shard %d took no scan lock (before %d, after %d)", due, before[due], after[due])
	}
	for sh := range after {
		if uint32(sh) != due && after[sh] != before[sh] {
			t.Fatalf("untouched shard %d was scan-locked (%d -> %d); only shard %d had due records",
				sh, before[sh], after[sh], due)
		}
	}
}

// TestFirstSweepAfterRemountIsScoped: an engine built over a populated
// store seeds its due-index from the stored records, so its first sweep is
// already scoped — it deletes the one expired record and scan-locks no
// other shard.
func TestFirstSweepAfterRemountIsScoped(t *testing.T) {
	r := newRig(t)
	subjA := "remount-a-0"
	subjB := subjectOnShard(t, "remount-b", func(sh uint32) bool { return sh != dbfs.ShardOf(subjA) })
	pdA := r.seedWithTTL(t, subjA, time.Hour, time.Time{})
	r.seedWithTTL(t, subjB, 1000*time.Hour, time.Time{})

	r2 := r.remount(t)
	r2.clock.Advance(time.Hour + time.Nanosecond) // only subjA due
	assertScopedSweep(t, r2, subjA, pdA)
	if got := r2.countRecords(t, subjB); got != 1 {
		t.Fatalf("subjB records = %d, want 1", got)
	}
}

// denyWhile registers a guard hook denying op on object id while the
// returned flag is set (it starts set).
func denyWhile(r *rig, op lsm.Operation, id string) *atomic.Bool {
	var on atomic.Bool
	on.Store(true)
	r.guard.RegisterHook(func(_ string, o lsm.Operation, obj lsm.ObjectRef) lsm.Decision {
		if on.Load() && o == op && obj.ID == id {
			return lsm.DecisionDeny
		}
		return lsm.DecisionAbstain
	})
	return &on
}

// TestSweepRearmsFailedDelete: a record whose delete fails stays stored,
// the pass reports the error alongside the deletes that succeeded, and
// the record's deadline goes back into the index, so the next pass
// deletes it once the delete is allowed again.
func TestSweepRearmsFailedDelete(t *testing.T) {
	r := newRig(t)
	stuck := r.seedWithTTL(t, "rearm-stuck", time.Hour, time.Time{})
	ok := r.seedWithTTL(t, "rearm-ok", time.Hour, time.Time{})
	deny := denyWhile(r, lsm.OpDelete, stuck)
	r.clock.Advance(time.Hour + time.Nanosecond)

	deleted, err := r.engine.SweepExpired()
	if !errors.Is(err, lsm.ErrDeniedByHook) {
		t.Fatalf("sweep with a denied delete: err = %v, want ErrDeniedByHook", err)
	}
	if len(deleted) != 1 || deleted[0] != ok {
		t.Fatalf("sweep with a denied delete deleted %v, want [%s]", deleted, ok)
	}
	if got := r.countRecords(t, "rearm-stuck"); got != 1 {
		t.Fatalf("denied record: %d left, want 1", got)
	}

	deny.Store(false)
	deleted, err = r.engine.SweepExpired()
	if err != nil || len(deleted) != 1 || deleted[0] != stuck {
		t.Fatalf("retry sweep = %v, %v; want [%s]", deleted, err, stuck)
	}
}

// TestSweepScanErrorKeepsDeadlines: a pass whose scan fails deletes
// nothing and puts every deadline it took back, so the next pass deletes
// the expired record once the scan is allowed again.
func TestSweepScanErrorKeepsDeadlines(t *testing.T) {
	r := newRig(t)
	pdid := r.seedWithTTL(t, "scan-fail", time.Hour, time.Time{})
	deny := denyWhile(r, lsm.OpScan, "subject/scan-fail")
	r.clock.Advance(time.Hour + time.Nanosecond)

	deleted, err := r.engine.SweepExpired()
	if !errors.Is(err, lsm.ErrDeniedByHook) || len(deleted) != 0 {
		t.Fatalf("sweep with a denied scan = %v, %v; want nothing and ErrDeniedByHook", deleted, err)
	}
	deny.Store(false)
	if got := r.countRecords(t, "scan-fail"); got != 1 {
		t.Fatalf("records after the failed pass = %d, want 1", got)
	}
	deleted, err = r.engine.SweepExpired()
	if err != nil || len(deleted) != 1 || deleted[0] != pdid {
		t.Fatalf("retry sweep = %v, %v; want [%s]", deleted, err, pdid)
	}
}

// TestNoteDuringScanSurvives: deadlines written while a pass holds its
// subjects — one for a subject the pass took, one for a subject on the
// same shard it did not take — land in the index and are not overwritten
// by the pass's own notes. Every record is deleted by the first pass after
// its deadline, and by no earlier pass.
func TestNoteDuringScanSurvives(t *testing.T) {
	r := newRig(t)
	taken := "during-taken"
	other := subjectOnShard(t, "during-other", func(sh uint32) bool { return sh == dbfs.ShardOf(taken) })
	deadline := map[string]time.Time{}
	seed := func(subject string, ttl time.Duration) {
		deadline[r.seedWithTTL(t, subject, ttl, time.Time{})] = r.clock.Now().Add(ttl)
	}
	seed(taken, time.Hour)    // due at the first pass
	seed(taken, 10*time.Hour) // the taken subject's next deadline
	seed(other, 10*time.Hour) // in the index, not due
	fired := false
	r.engine.sweepScanHook = func() {
		if !fired {
			fired = true
			seed(taken, 2*time.Hour)
			seed(other, 3*time.Hour)
		}
	}

	r.clock.Advance(time.Hour + time.Nanosecond)
	gone := map[string]bool{}
	pass := func() {
		t.Helper()
		now := r.clock.Now()
		deleted, err := r.engine.SweepExpired()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for pdid, dl := range deadline {
			if dl.Before(now) && !gone[pdid] {
				want = append(want, pdid)
				gone[pdid] = true
			}
		}
		sort.Strings(want)
		if strings.Join(deleted, ",") != strings.Join(want, ",") {
			t.Fatalf("pass at %v deleted %v, want %v", now, deleted, want)
		}
	}
	pass()
	if !fired {
		t.Fatal("scan hook did not fire")
	}
	// Visit each deadline and the instant after it.
	var marks []time.Time
	for _, dl := range deadline {
		marks = append(marks, dl, dl.Add(time.Nanosecond))
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].Before(marks[j]) })
	for _, m := range marks {
		if m.After(r.clock.Now()) {
			r.clock.Advance(m.Sub(r.clock.Now()))
			pass()
		}
	}
	if len(gone) != len(deadline) {
		t.Fatalf("deleted %d of %d records", len(gone), len(deadline))
	}
}

// TestSweeperFailedDeleteWaitsOneInterval: a background pass puts a failed
// delete's deadline back without kicking the loop, even when the same pass
// notes another subject's next deadline into an emptied shard, so the loop
// sleeps a full Interval before it retries instead of spinning on the
// failure.
func TestSweeperFailedDeleteWaitsOneInterval(t *testing.T) {
	r := newRig(t)
	stuck := r.seedWithTTL(t, "wait-stuck", time.Hour, time.Time{})
	other := subjectOnShard(t, "wait-other", func(sh uint32) bool { return sh != dbfs.ShardOf("wait-stuck") })
	r.seedWithTTL(t, other, time.Hour, time.Time{})
	r.seedWithTTL(t, other, 5*time.Hour, time.Time{})
	denyWhile(r, lsm.OpDelete, stuck)
	spy := sleepSpy{Sim: r.clock, entered: make(chan time.Time, 64)}
	const interval = 12 * time.Hour
	eng, err := New(r.ps, r.d, r.log, spy, interval)
	if err != nil {
		t.Fatal(err)
	}
	sw := eng.Sweeper()
	sw.Start()
	defer sw.Stop()
	<-spy.entered // asleep until the one-hour deadline

	now := r.clock.Advance(time.Hour + time.Nanosecond)
	select {
	case target := <-spy.entered:
		if want := now.Add(interval); !target.Equal(want) {
			t.Fatalf("after the failing pass the sweeper sleeps until %v, want one Interval (%v)", target, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweeper never went back to sleep")
	}
	select {
	case target := <-spy.entered:
		t.Fatalf("sweeper woke again at once (next sleep until %v): the failed delete was retried without waiting", target)
	case <-time.After(100 * time.Millisecond):
	}
	if st := sw.Stats(); st.Passes != 1 || st.Errors != 1 || st.Deleted != 1 {
		t.Fatalf("sweeper stats = %+v, want one failing pass that deleted one record", st)
	}
}
