package simclock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// loopRig is a Loop on a Sim clock whose pass announces itself on a
// channel, so tests join passes without sleeping.
type loopRig struct {
	clk    *Sim
	loop   *Loop
	passed chan time.Time

	mu     sync.Mutex
	passes int
	forced int
	due    time.Time // zero = nothing outstanding
}

// newLoopRig builds a stopped loop; withDue selects the deadline-driven
// form (rig.due is the deadline) over the purely periodic one.
func newLoopRig(interval time.Duration, withDue bool) *loopRig {
	// passed holds every pass of the longest test, so a pass never blocks
	// on a test that joins with Sync instead of reading it.
	r := &loopRig{clk: NewSim(Epoch), passed: make(chan time.Time, 4096)}
	var due func(time.Time) (time.Time, bool)
	if withDue {
		due = func(time.Time) (time.Time, bool) {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.due, !r.due.IsZero()
		}
	}
	r.loop = NewLoop(r.clk, interval, func(now time.Time, forced bool) {
		r.mu.Lock()
		r.passes++
		if forced {
			r.forced++
		}
		r.mu.Unlock()
		r.passed <- now
	}, due)
	return r
}

func (r *loopRig) setDue(t time.Time) {
	r.mu.Lock()
	r.due = t
	r.mu.Unlock()
}

func (r *loopRig) count() (passes, forced int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.passes, r.forced
}

// awaitPass joins the next pass (bounded, so a broken loop fails the test
// instead of hanging it) and returns its start instant.
func (r *loopRig) awaitPass(t *testing.T) time.Time {
	t.Helper()
	select {
	case at := <-r.passed:
		return at
	case <-time.After(10 * time.Second):
		t.Fatal("no pass within 10s")
		return time.Time{}
	}
}

// awaitSleep spins (yielding, bounded) until the loop is parked in the Sim
// clock's WaitUntil — the point from which an Advance is what wakes it.
func (r *loopRig) awaitSleep(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.clk.mu.Lock()
		n := len(r.clk.waiters)
		r.clk.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("loop not asleep within 10s")
		}
		runtime.Gosched()
	}
}

// settle joins the loop with a Sync and returns the pass count after it.
func (r *loopRig) settle() int {
	r.loop.Sync()
	n, _ := r.count()
	return n
}

func TestLoopStartStopIdempotentAndRestart(t *testing.T) {
	r := newLoopRig(time.Minute, false)
	if r.loop.Running() {
		t.Fatal("Running before Start")
	}
	r.loop.Stop() // stop before any start: no-op
	r.loop.Start()
	r.loop.Start() // no second goroutine: exactly one pass per interval below
	if !r.loop.Running() {
		t.Fatal("not Running after Start")
	}
	r.clk.Advance(time.Minute)
	if at := r.awaitPass(t); !at.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("first periodic pass at %v, want one interval after Start", at)
	}
	if n := r.settle(); n != 2 {
		t.Fatalf("passes after one interval + Sync = %d, want 2 (a doubled loop would add more)", n)
	}
	r.loop.Stop()
	r.loop.Stop()
	if r.loop.Running() {
		t.Fatal("Running after Stop")
	}

	// Restart: the periodic anchor is the restart instant, and the loop
	// works as before.
	r.loop.Start()
	defer r.loop.Stop()
	r.clk.Advance(time.Minute)
	r.awaitPass(t) // settle's forced pass, announced before the Stop
	if at := r.awaitPass(t); !at.Equal(Epoch.Add(2 * time.Minute)) {
		t.Fatalf("pass after restart at %v, want %v", at, Epoch.Add(2*time.Minute))
	}
}

func TestLoopSyncCoversCallInstant(t *testing.T) {
	r := newLoopRig(time.Hour, false)
	r.loop.Sync() // stopped loop: returns at once, runs nothing
	if n, _ := r.count(); n != 0 {
		t.Fatalf("Sync on a stopped loop ran %d passes", n)
	}
	r.loop.Start()
	defer r.loop.Stop()
	for i := 1; i <= 3; i++ {
		now := r.clk.Advance(time.Second) // far short of the interval
		r.loop.Sync()
		n, forced := r.count()
		if n != i || forced != i {
			t.Fatalf("after Sync %d: passes=%d forced=%d, want %d forced passes", i, n, forced, i)
		}
		if at := r.awaitPass(t); !at.Equal(now) {
			t.Fatalf("Sync %d joined a pass at %v, want the call instant %v", i, at, now)
		}
	}
}

func TestLoopStopReleasesBlockedSync(t *testing.T) {
	r := newLoopRig(time.Hour, false)
	enter, release := make(chan struct{}), make(chan struct{})
	r.loop.pass = func(time.Time, bool) {
		enter <- struct{}{}
		<-release
	}
	r.loop.Start()
	first := make(chan struct{})
	go func() { r.loop.Sync(); close(first) }()
	<-enter // the forced pass is running, at the epoch
	r.clk.Advance(time.Second)
	second := make(chan struct{})
	go func() { r.loop.Sync(); close(second) }() // wants a pass at epoch+1s
	stopped := make(chan struct{})
	go func() { r.loop.Stop(); close(stopped) }()
	// Stop has marked the loop stopped before it joins the in-flight pass,
	// so once the pass is released no second pass may start.
	for r.loop.Running() {
		runtime.Gosched()
	}
	close(release)
	for _, ch := range []chan struct{}{first, second, stopped} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("Stop left a Sync (or itself) blocked")
		}
	}
	select {
	case <-enter:
		t.Fatal("a pass started after Stop")
	default:
	}
}

func TestLoopNoPassAfterStop(t *testing.T) {
	r := newLoopRig(time.Minute, true)
	r.loop.Start()
	r.settle()
	r.loop.Stop()
	before, _ := r.count()
	r.setDue(r.clk.Now().Add(time.Second))
	r.loop.Kick()
	r.loop.SetInterval(time.Second)
	r.clk.Advance(1000 * time.Hour)
	r.loop.Sync()
	if after, _ := r.count(); after != before {
		t.Fatalf("stopped loop ran %d passes", after-before)
	}
}

func TestLoopKickReaimsAtEarlierDue(t *testing.T) {
	r := newLoopRig(time.Hour, true)
	r.loop.Start()
	defer r.loop.Stop()
	base := r.settle()
	r.awaitPass(t)
	r.awaitSleep(t) // until epoch+1h: nothing is due

	// A deadline appears well inside the sleep. Without the Kick the loop
	// would sit in its hour-long wait; with it the pass lands exactly at
	// the deadline, not one interval later.
	deadline := Epoch.Add(time.Minute)
	r.setDue(deadline)
	r.loop.Kick()
	r.clk.Advance(59 * time.Second)
	r.clk.Advance(time.Second)
	if at := r.awaitPass(t); !at.Equal(deadline) {
		t.Fatalf("kicked pass at %v, want the deadline %v", at, deadline)
	}
	r.setDue(time.Time{})
	if n := r.settle(); n != base+2 {
		t.Fatalf("passes = %d, want %d (settle, deadline, settle)", n, base+2)
	}
}

func TestLoopSetIntervalShortensWaitInProgress(t *testing.T) {
	r := newLoopRig(time.Hour, false)
	r.loop.Start()
	defer r.loop.Stop()
	r.awaitSleep(t) // in WaitUntil(epoch+1h)
	r.loop.SetInterval(time.Minute)
	if got := r.loop.Interval(); got != time.Minute {
		t.Fatalf("Interval = %v, want 1m", got)
	}
	r.clk.Advance(time.Minute)
	if at := r.awaitPass(t); !at.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("pass at %v, want one NEW interval after Start", at)
	}
	r.loop.SetInterval(0) // restores the constructor's
	if got := r.loop.Interval(); got != time.Hour {
		t.Fatalf("Interval after SetInterval(0) = %v, want 1h", got)
	}
}

// A deadline that stays in the past after a pass (the delete keeps
// failing, the node stays down) is retried once per interval, never spun.
func TestLoopPastDueRetriesOncePerInterval(t *testing.T) {
	r := newLoopRig(time.Minute, true)
	r.setDue(Epoch.Add(-time.Hour)) // never satisfied
	r.loop.Start()
	defer r.loop.Stop()
	r.awaitPass(t) // overdue at Start: runs at once
	const n = 25
	for i := 1; i <= n; i++ {
		// The backoff runs from when the loop goes back to sleep.
		r.awaitSleep(t)
		now := r.clk.Advance(time.Minute)
		if at := r.awaitPass(t); !at.Equal(now) {
			t.Fatalf("retry %d at %v, want %v", i, at, now)
		}
	}
	// Join: one forced pass on top, and not a single spun one.
	if got := r.settle(); got != 1+n+1 {
		t.Fatalf("passes = %d across %d intervals, want %d", got, n, 1+n+1)
	}
	if got := r.settle(); got != 1+n+2 {
		t.Fatalf("passes after a second Sync = %d, want %d", got, 1+n+2)
	}
}

// The loop sleeps in one WaitUntil with no helper goroutine: 1000 sleeps
// leave the goroutine count flat, and Stop returns it to the baseline.
func TestLoopGoroutinesFlat(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newLoopRig(time.Minute, false)
	r.loop.Start()
	r.awaitSleep(t)
	asleep := runtime.NumGoroutine()
	if asleep <= base {
		t.Fatalf("goroutines with the loop asleep = %d, baseline %d: no loop goroutine?", asleep, base)
	}
	for i := 1; i <= 1000; i++ {
		r.clk.Advance(time.Minute)
		r.awaitPass(t)
		r.awaitSleep(t)
		if got := runtime.NumGoroutine(); got > asleep {
			t.Fatalf("sleep %d: %d goroutines, was %d at the first sleep", i, got, asleep)
		}
	}
	r.loop.Stop()
	// Stop joins the loop's done channel, which closes a hair before the
	// goroutine is gone: the one bounded real-time wait of this file.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Stop = %d, want baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewLoopRejectsNonWaiterClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLoop accepted a Clock it cannot sleep on")
		}
	}()
	NewLoop(nowOnly{}, time.Second, func(time.Time, bool) {}, nil)
}

type nowOnly struct{}

func (nowOnly) Now() time.Time { return Epoch }
