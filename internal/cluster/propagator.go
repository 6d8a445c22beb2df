// The bounded-window propagation loop. A cross-node mutation that fails on
// some copy-holding node (node briefly unreachable, injected fault) is not
// lost: the cluster queues the (subject, node) sync with a deadline one
// PropagationWindow out, and the Propagator — a simclock.Loop whose
// interval is the window and whose deadline is the earliest queued retry —
// retries every due sync, re-arming failures for the next window. The
// guarantee is the window bound: once the node is reachable again, the
// mutation lands within one PropagationWindow. Simulated-clock tests drive
// it deterministically: enqueue a failure, advance the clock past the
// window, Sync(), assert the copy is dead.
package cluster

import (
	"sort"
	"sync"
	"time"

	"repro/internal/simclock"
)

// retryPending runs one propagation pass: every queued sync whose deadline
// has arrived (all of them when force is set), in (subject, node) order.
// Failures stay queued with a fresh deadline one window out.
func (c *Cluster) retryPending(force bool) (retried, failed int) {
	now := c.clock.Now()
	c.mu.Lock()
	keys := make([]pendKey, 0, len(c.pending))
	for k, dl := range c.pending {
		if force || !now.Before(dl) {
			keys = append(keys, k)
		}
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].subject != keys[j].subject {
			return keys[i].subject < keys[j].subject
		}
		return keys[i].node < keys[j].node
	})
	for _, k := range keys {
		unlock := c.lockSubject(k.subject)
		err := c.syncNode(k.subject, c.HomeOf(k.subject), k.node)
		unlock()
		retried++
		c.mu.Lock()
		if err != nil {
			failed++
			c.pending[k] = c.clock.Now().Add(c.window)
		} else {
			delete(c.pending, k)
		}
		c.mu.Unlock()
	}
	return retried, failed
}

// earliestPending reports the soonest retry deadline in the queue — the
// propagator loop's due.
func (c *Cluster) earliestPending(time.Time) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min time.Time
	for _, dl := range c.pending {
		if min.IsZero() || dl.Before(min) {
			min = dl
		}
	}
	return min, !min.IsZero()
}

// PropagatorStats counts the background propagator's activity.
type PropagatorStats struct {
	// Passes counts completed retry passes; Retried / Failed accumulate
	// per-sync outcomes across passes.
	Passes  uint64
	Retried uint64
	Failed  uint64
	// LastPass is the start instant of the last completed pass.
	LastPass time.Time
}

// Propagator is the cluster's background retry loop. Every cluster has
// exactly one (StartPropagator), stopped until started. The loop is held
// rather than embedded: its interval is the cluster's PropagationWindow
// and is not separately settable.
type Propagator struct {
	c    *Cluster
	loop *simclock.Loop

	mu    sync.Mutex
	stats PropagatorStats
}

func newPropagator(c *Cluster) *Propagator {
	p := &Propagator{c: c}
	p.loop = simclock.NewLoop(c.clock, c.window, p.pass, c.earliestPending)
	return p
}

// StartPropagator starts the cluster's propagator (a no-op when it is
// already running) and returns it.
func (c *Cluster) StartPropagator() *Propagator {
	c.prop.Start()
	return c.prop
}

// Start launches the background loop. Starting a running propagator is a
// no-op.
func (p *Propagator) Start() { p.loop.Start() }

// Stop halts the loop and waits for it to exit; an in-flight pass
// finishes. Stopping a stopped propagator is a no-op.
func (p *Propagator) Stop() { p.loop.Stop() }

// Running reports whether the loop is active.
func (p *Propagator) Running() bool { return p.loop.Running() }

// Sync forces a pass retrying every queued sync — due or not — and blocks
// until it completes (or the propagator stops): the deterministic join
// point for simclock tests.
func (p *Propagator) Sync() { p.loop.Sync() }

// Stats snapshots the propagator counters.
func (p *Propagator) Stats() PropagatorStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// pass runs one retry pass and records its outcome.
func (p *Propagator) pass(start time.Time, forced bool) {
	retried, failed := p.c.retryPending(forced)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Passes++
	p.stats.Retried += uint64(retried)
	p.stats.Failed += uint64(failed)
	p.stats.LastPass = start
}
