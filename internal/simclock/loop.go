package simclock

import (
	"sync"
	"time"
)

// Loop is the one background-loop lifecycle every ticker-driven component
// shares — its three users are the retention sweeper, the cold-tier
// repacker and the cluster propagator. The component supplies two
// callbacks:
//
//   - pass(now, forced) does the work; forced means a Sync asked for it.
//   - due(now), optional, reports the earliest outstanding deadline. A nil
//     due makes the loop purely periodic: the next pass is due one
//     interval after the previous one (or after Start).
//
// The loop runs a pass when one is forced or due is reached, and otherwise
// sleeps until min(now+interval, due). Right after a pass it always goes
// through the sleep, so work whose deadline stays in the past (a delete
// that keeps failing, an unreachable node) is retried once per interval,
// never spun. It sleeps in a single Waiter.WaitUntil whose cancel channel
// is the one buffered wake slot that Stop, Sync and Kick all nudge, so simulated-clock tests drive it deterministically (advance,
// Sync, assert).
type Loop struct {
	clock    Waiter
	pass     func(now time.Time, forced bool)
	due      func(now time.Time) (time.Time, bool)
	interval time.Duration
	wake     chan struct{}

	life sync.Mutex // serializes Start and Stop: no Start overlaps a join

	mu      sync.Mutex
	cond    *sync.Cond
	running bool
	done    chan struct{}
	last    time.Time // previous pass (or Start): the periodic anchor
	asked   uint64    // Sync calls so far
	served  uint64    // Sync calls covered by a completed pass
}

// NewLoop builds a stopped loop on clock (nil = Real; the clock must be a
// Waiter, which both clocks of this package are) pacing itself at interval.
func NewLoop(clock Clock, interval time.Duration, pass func(now time.Time, forced bool), due func(now time.Time) (time.Time, bool)) *Loop {
	if clock == nil {
		clock = Real{}
	}
	w, ok := clock.(Waiter)
	if !ok {
		panic("simclock: Loop needs a Clock that implements Waiter")
	}
	l := &Loop{clock: w, pass: pass, due: due, interval: interval, wake: make(chan struct{}, 1)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Start launches the loop. Starting a running loop is a no-op; a stopped
// loop can be started again.
func (l *Loop) Start() {
	l.life.Lock()
	defer l.life.Unlock()
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running {
		return
	}
	l.running, l.last, l.done = true, now, make(chan struct{})
	go l.run(l.done)
}

// Stop halts the loop and waits for it to exit — an in-flight pass
// finishes — and releases every blocked Sync. Stopping a stopped loop is
// a no-op.
func (l *Loop) Stop() {
	l.life.Lock()
	defer l.life.Unlock()
	l.mu.Lock()
	if !l.running {
		l.mu.Unlock()
		return
	}
	l.running = false
	l.cond.Broadcast()
	done := l.done
	l.mu.Unlock()
	l.Kick()
	<-done
}

// Running reports whether the loop is active.
func (l *Loop) Running() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.running
}

// Kick makes a sleeping loop re-evaluate due — call it when a deadline
// moved earlier. It never blocks: a pending nudge is enough, extra ones
// drop.
func (l *Loop) Kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Sync forces a pass that starts after the call — so it covers the instant
// of the call and everything written before it — and blocks until that
// pass completes or the loop stops. On a stopped loop it returns at once.
func (l *Loop) Sync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.running {
		return
	}
	l.asked++
	want := l.asked
	l.Kick()
	for l.running && l.served < want {
		l.cond.Wait()
	}
}

func (l *Loop) run(done chan struct{}) {
	defer close(done)
	ranPass := false
	for {
		l.mu.Lock()
		if !l.running {
			l.mu.Unlock()
			return
		}
		asked, next := l.asked, l.last.Add(l.interval)
		forced := asked > l.served
		l.mu.Unlock()
		// The clock is read after the Sync count, so a forced pass covers
		// the instant of every Sync it serves.
		now := l.clock.Now()
		hasDue := true
		if l.due != nil {
			next, hasDue = l.due(now)
		}
		if forced || (!ranPass && hasDue && !next.After(now)) {
			// Nudges up to here are subsumed by this pass; one arriving
			// during it still cuts the following sleep short.
			select {
			case <-l.wake:
			default:
			}
			l.pass(now, forced)
			l.mu.Lock()
			l.last, l.served = now, asked
			l.cond.Broadcast()
			l.mu.Unlock()
			ranPass = true
			continue
		}
		target := now.Add(l.interval)
		if hasDue && next.After(now) && next.Before(target) {
			target = next
		}
		l.clock.WaitUntil(target, l.wake)
		ranPass = false
	}
}
