package core

// Tests for Boot's wiring: the cold-tier, sweeper and cache options reach
// their layers, bad options are rejected, and the background repacker
// demotes on the machine clock with reads staying transparent.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbfs"
	"repro/internal/lsm"
	"repro/internal/simclock"
)

func insertUser(t *testing.T, s *System, subject string) string {
	t.Helper()
	pdid, err := s.DBFS().Insert(s.DEDToken(), "user", subject, dbfs.Record{
		"name": dbfs.S("u-" + subject), "pwd": dbfs.S("pw"), "year_of_birthdate": dbfs.I(1990),
	}, nil)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return pdid
}

// sleepSpy is a Sim clock announcing every WaitUntil a background loop
// enters, so a test reads the cadence a started loop was built with.
type sleepSpy struct {
	*simclock.Sim
	entered chan time.Time
}

func (s sleepSpy) WaitUntil(t time.Time, cancel <-chan struct{}) bool {
	s.entered <- t
	return s.Sim.WaitUntil(t, cancel)
}

func newSleepSpy() sleepSpy {
	// Each started loop here sleeps once or twice; 64 never blocks one.
	return sleepSpy{Sim: simclock.NewSim(simclock.Epoch), entered: make(chan time.Time, 64)}
}

func TestBootColdTierWiring(t *testing.T) {
	spy := newSleepSpy()
	s, err := Boot(Options{AuthorityBits: 1024, Clock: spy, ColdAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if s.DBFS().ColdAfter() != time.Hour {
		t.Fatalf("store ColdAfter = %v, want 1h", s.DBFS().ColdAfter())
	}
	rp := s.StartRepacker()
	defer rp.Stop()
	if s.StartRepacker() != rp {
		t.Fatal("a second StartRepacker does not return the running repacker")
	}
	if got, want := <-spy.entered, simclock.Epoch.Add(repackInterval); !got.Equal(want) {
		t.Fatalf("repacker sleeps until %v, want one repackInterval (%v)", got, want)
	}
}

// TestRepackerDefaultInterval: the started repacker sleeps one
// repackInterval before its first pass and one more after each pass.
func TestRepackerDefaultInterval(t *testing.T) {
	spy := newSleepSpy()
	s, err := Boot(Options{AuthorityBits: 1024, Clock: spy})
	if err != nil {
		t.Fatal(err)
	}
	rp := s.StartRepacker()
	defer rp.Stop()
	if got, want := <-spy.entered, simclock.Epoch.Add(repackInterval); !got.Equal(want) {
		t.Fatalf("first sleep until %v, want %v", got, want)
	}
	spy.Advance(repackInterval)
	if got, want := <-spy.entered, simclock.Epoch.Add(2*repackInterval); !got.Equal(want) {
		t.Fatalf("sleep after the first pass until %v, want %v", got, want)
	}
}

// TestBootOptionsReachLayers: the sweep cadence and the membrane-cache
// ablation given to Boot are what the sweeper and the store run with.
func TestBootOptionsReachLayers(t *testing.T) {
	spy := newSleepSpy()
	s, err := Boot(Options{AuthorityBits: 1024, Clock: spy, SweepInterval: 2 * time.Minute, MembraneCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	sw := s.StartSweeper()
	if s.StartSweeper() != sw {
		t.Fatal("a second StartSweeper does not return the running sweeper")
	}
	got := <-spy.entered
	sw.Stop()
	if want := simclock.Epoch.Add(2 * time.Minute); !got.Equal(want) {
		t.Fatalf("idle sweeper sleeps until %v, want one SweepInterval (%v)", got, want)
	}

	setupUserType(t, s)
	pdid := insertUser(t, s, "alice")
	for i := 0; i < 2; i++ {
		if _, err := s.DBFS().GetMembrane(s.DEDToken(), pdid); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.DBFS().Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.MembraneReads != 2 {
		t.Fatalf("MembraneCache -1: hits %d misses %d reads %d, want 0/0/2",
			st.CacheHits, st.CacheMisses, st.MembraneReads)
	}
}

// TestBootRejectsBadOptions: a negative duration fails Boot with
// ErrBadOptions instead of silently meaning the default.
func TestBootRejectsBadOptions(t *testing.T) {
	for name, opts := range map[string]Options{
		"SweepInterval": {SweepInterval: -time.Minute},
		"ColdAfter":     {ColdAfter: -time.Hour},
	} {
		opts.AuthorityBits = 1024
		s, err := Boot(opts)
		if !errors.Is(err, ErrBadOptions) || s != nil {
			t.Errorf("%s negative: Boot = %v, %v; want nil, ErrBadOptions", name, s, err)
		}
	}
}

func TestRepackerDemotesAndReadsStayTransparent(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, ColdAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	setupUserType(t, s)
	pdid := insertUser(t, s, "alice")
	sim, ok := s.SimClock()
	if !ok {
		t.Fatal("default boot clock is not a simclock")
	}
	rp := s.StartRepacker()
	defer rp.Stop()

	sim.Advance(2 * time.Hour)
	rp.Sync()
	if st := s.DBFS().Stats(); st.Demotions < 1 || st.ColdRecords < 1 {
		t.Fatalf("store Stats = %+v, want demoted record in the cold gauge", st)
	}

	rec, err := s.DBFS().GetRecord(s.DEDToken(), pdid)
	if err != nil {
		t.Fatalf("GetRecord(archived): %v", err)
	}
	if rec["name"].S != "u-alice" {
		t.Fatalf("promoted record = %v", rec)
	}
	if st := s.DBFS().Stats(); st.Promotions != 1 {
		t.Fatalf("store Promotions = %d, want 1", st.Promotions)
	}
}

// TestRepackerCountsErrors: a background repack pass the LSM denies
// is counted in dbfs.Stats.RepackErrors, and the loop keeps running — the
// next allowed pass demotes.
func TestRepackerCountsErrors(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, ColdAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	setupUserType(t, s)
	insertUser(t, s, "alice")
	var deny atomic.Bool
	deny.Store(true)
	s.Guard().RegisterHook(func(_ string, _ lsm.Operation, obj lsm.ObjectRef) lsm.Decision {
		if deny.Load() && obj.ID == "cold/repack" {
			return lsm.DecisionDeny
		}
		return lsm.DecisionAbstain
	})
	sim, _ := s.SimClock()
	rp := s.StartRepacker()
	defer rp.Stop()

	sim.Advance(2 * time.Hour)
	rp.Sync()
	if st := s.DBFS().Stats(); st.RepackErrors < 1 || st.Demotions != 0 {
		t.Fatalf("denied pass: RepackErrors %d, Demotions %d; want >= 1 and 0", st.RepackErrors, st.Demotions)
	}
	failed := s.DBFS().Stats().RepackErrors

	deny.Store(false)
	sim.Advance(repackInterval)
	rp.Sync()
	if !rp.Running() {
		t.Fatal("repacker stopped after a failed pass")
	}
	if st := s.DBFS().Stats(); st.Demotions != 1 || st.RepackErrors != failed {
		t.Fatalf("allowed pass: Demotions %d, RepackErrors %d; want 1 and %d", st.Demotions, st.RepackErrors, failed)
	}
}
