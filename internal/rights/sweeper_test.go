package rights

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dbfs"
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

// startSweeper starts the engine's sweeper with the given grace window.
func startSweeper(e *Engine, interval time.Duration) *Sweeper {
	sw := e.Sweeper()
	sw.SetInterval(interval)
	sw.Start()
	return sw
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

	// Prime the index, then run one pass (the exact code path the
	// background sweeper drives) whose scan has already snapshotted its
	// instant when "late"'s deadline passes mid-pass.
	if _, err := r.engine.SweepExpired(); err != nil {
		t.Fatal(err)
	}
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
	sw.Sync() // prime on an empty store

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
	eng := New(r.ps, r.d, r.log, spy)
	const interval = 12 * time.Hour

	first := startSweeper(eng, interval)
	second := startSweeper(eng, interval)
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

// TestScopedSweepSkipsUntouchedShards is the due-index satellite: after
// priming, a sweep with one due subject must take shard locks only on that
// subject's shard — the other subject's shard-scan counter does not move.
func TestScopedSweepSkipsUntouchedShards(t *testing.T) {
	r := newRig(t)
	// Find two subjects hashing to different shards.
	subjA := "shard-a-0"
	subjB := ""
	for i := 0; i < 1000 && subjB == ""; i++ {
		cand := fmt.Sprintf("shard-b-%d", i)
		if r.store.ShardOf(cand) != r.store.ShardOf(subjA) {
			subjB = cand
		}
	}
	if subjB == "" {
		t.Fatal("could not find a second shard")
	}
	pdA := r.seedWithTTL(t, subjA, time.Hour, time.Time{})
	r.seedWithTTL(t, subjB, 1000*time.Hour, time.Time{})

	// Priming pass: scans everything, seeds exact deadlines.
	if deleted, err := r.engine.SweepExpired(); err != nil || len(deleted) != 0 {
		t.Fatalf("priming sweep = %v, %v", deleted, err)
	}

	r.clock.Advance(time.Hour + time.Nanosecond) // only subjA due
	before := r.store.ShardScans()
	deleted, err := r.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != pdA {
		t.Fatalf("scoped sweep deleted %v, want [%s]", deleted, pdA)
	}
	after := r.store.ShardScans()
	shardA := r.store.ShardOf(subjA)
	if after[shardA] <= before[shardA] {
		t.Fatalf("due shard %d took no scan lock (before %d, after %d)", shardA, before[shardA], after[shardA])
	}
	for sh := range after {
		if uint32(sh) == shardA {
			continue
		}
		if after[sh] != before[sh] {
			t.Fatalf("untouched shard %d was scan-locked (%d -> %d); only shard %d had due records",
				sh, before[sh], after[sh], shardA)
		}
	}
	if got := r.countRecords(t, subjB); got != 1 {
		t.Fatalf("subjB records = %d, want 1", got)
	}
}
