package coldtier

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// countTarget is a Target that counts passes and serves canned results.
type countTarget struct {
	mu     sync.Mutex
	passes int
	stats  PassStats
	err    error
}

func (ct *countTarget) RepackPass(now time.Time) (PassStats, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.passes++
	return ct.stats, ct.err
}

func (ct *countTarget) count() int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.passes
}

// TestRepackerLifecycle: the repacker is a periodic loop over its target —
// one pass per DefaultRepackInterval, each accumulated into Stats. (Start/Stop/Sync
// themselves are simclock.Loop's, tested there.)
func TestRepackerLifecycle(t *testing.T) {
	clk := simclock.NewSim(simclock.Epoch)
	ct := &countTarget{stats: PassStats{Demoted: 3, DedupHits: 1}}
	rp := NewRepacker(clk, ct)
	rp.Start()
	defer rp.Stop()
	rp.Sync()
	if got := ct.count(); got != 1 {
		t.Fatalf("passes after first Sync = %d, want 1", got)
	}

	clk.Advance(2 * time.Minute)
	rp.Sync()
	st := rp.Stats()
	if st.Passes < 2 || int(st.Passes) != ct.count() {
		t.Fatalf("Stats.Passes = %d with %d target passes, want equal and >= 2", st.Passes, ct.count())
	}
	if st.Demoted != st.Passes*3 || st.DedupHits != st.Passes {
		t.Fatalf("Stats = %+v, want Demoted = 3*Passes, DedupHits = Passes", st)
	}
	if st.Errors != 0 {
		t.Fatalf("Stats.Errors = %d, want 0", st.Errors)
	}
	if !st.LastPass.Equal(clk.Now()) {
		t.Fatalf("LastPass = %v, want %v", st.LastPass, clk.Now())
	}
}

func TestRepackerCountsErrors(t *testing.T) {
	clk := simclock.NewSim(simclock.Epoch)
	ct := &countTarget{err: errors.New("shard offline")}
	rp := NewRepacker(clk, ct)
	rp.Start()
	defer rp.Stop()
	rp.Sync()
	st := rp.Stats()
	if st.Passes < 1 || st.Errors != st.Passes {
		t.Fatalf("Stats = %+v, want every pass counted as error", st)
	}
	if st.Demoted != 0 {
		t.Fatalf("Stats.Demoted = %d on failing passes, want 0", st.Demoted)
	}
}

// sleepSpy is a Sim clock announcing every WaitUntil the loop enters.
type sleepSpy struct {
	*simclock.Sim
	entered chan time.Time
}

func (s sleepSpy) WaitUntil(t time.Time, cancel <-chan struct{}) bool {
	s.entered <- t
	return s.Sim.WaitUntil(t, cancel)
}

// TestRepackerDefaultInterval: the started repacker sleeps
// DefaultRepackInterval before its first pass.
func TestRepackerDefaultInterval(t *testing.T) {
	spy := sleepSpy{Sim: simclock.NewSim(simclock.Epoch), entered: make(chan time.Time, 1)}
	rp := NewRepacker(spy, TargetFunc(func(time.Time) (PassStats, error) {
		return PassStats{}, nil
	}))
	rp.Start()
	defer rp.Stop()
	if got, want := <-spy.entered, simclock.Epoch.Add(DefaultRepackInterval); !got.Equal(want) {
		t.Fatalf("first sleep until %v, want %v", got, want)
	}
}
