package core

// Tests for the unified runtime-tuning API (ApplyTuning / Tuning) and the
// self-tuning control plane wiring: validation rejects whole documents,
// every knob round-trips, concurrent appliers and snapshotters are
// race-free, and the booted controllers steer their knobs only through
// the API.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/dbfs"
	"repro/internal/rights"
)

func ptr[T any](v T) *T { return &v }

func TestApplyTuningValidation(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s)
	before := s.Tuning()
	cases := []struct {
		name string
		doc  Tuning
	}{
		{"negative commit window", Tuning{CommitWindow: ptr(-time.Millisecond)}},
		{"negative max batch", Tuning{GroupMaxBatch: ptr(-1)}},
		{"negative admission bound", Tuning{AdmissionMaxPending: ptr(-1)}},
		{"empty rate-limit purpose", Tuning{RateLimits: []RateLimit{{Purpose: "", RatePerSec: 1}}}},
		{"unknown rate-limit purpose", Tuning{RateLimits: []RateLimit{{Purpose: "nope", RatePerSec: 1}}}},
		{"negative burst", Tuning{RateLimits: []RateLimit{{Purpose: "purpose3", RatePerSec: 1, Burst: -1}}}},
		{"negative rights workers", Tuning{RightsWorkers: ptr(-2)}},
		{"zero sweep interval", Tuning{SweepInterval: ptr(time.Duration(0))}},
		// A document with one bad field applies nothing, even when other
		// fields are valid.
		{"partial bad document", Tuning{CommitWindow: ptr(time.Millisecond), GroupMaxBatch: ptr(-1)}},
	}
	for _, tc := range cases {
		err := s.ApplyTuning(tc.doc)
		if !errors.Is(err, ErrBadTuning) {
			t.Fatalf("%s: err = %v, want ErrBadTuning", tc.name, err)
		}
	}
	if after := s.Tuning(); *after.CommitWindow != *before.CommitWindow ||
		*after.GroupMaxBatch != *before.GroupMaxBatch ||
		*after.AdmissionMaxPending != *before.AdmissionMaxPending {
		t.Fatalf("rejected documents changed state: before %+v after %+v", before, after)
	}
}

func TestApplyTuningRoundTrip(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s)
	doc := Tuning{
		CommitWindow:        ptr(3 * time.Millisecond),
		GroupMaxBatch:       ptr(7),
		AdmissionMaxPending: ptr(42),
		RateLimits:          []RateLimit{{Purpose: "purpose3", RatePerSec: 5, Burst: 10}},
		MembraneCache:       ptr(512),
		RightsWorkers:       ptr(3),
		SerialOps:           ptr(true),
		SweepInterval:       ptr(90 * time.Second),
	}
	if err := s.ApplyTuning(doc); err != nil {
		t.Fatalf("ApplyTuning: %v", err)
	}
	got := s.Tuning()
	if *got.CommitWindow != 3*time.Millisecond || *got.GroupMaxBatch != 7 {
		t.Fatalf("journal knobs = %v/%d", *got.CommitWindow, *got.GroupMaxBatch)
	}
	if *got.AdmissionMaxPending != 42 {
		t.Fatalf("AdmissionMaxPending = %d", *got.AdmissionMaxPending)
	}
	if len(got.RateLimits) != 1 || got.RateLimits[0] != (RateLimit{Purpose: "purpose3", RatePerSec: 5, Burst: 10}) {
		t.Fatalf("RateLimits = %+v", got.RateLimits)
	}
	if *got.MembraneCache != 512 || *got.RightsWorkers != 3 || !*got.SerialOps {
		t.Fatalf("cache/workers/serial = %d/%d/%v", *got.MembraneCache, *got.RightsWorkers, *got.SerialOps)
	}
	if *got.SweepInterval != 90*time.Second {
		t.Fatalf("SweepInterval = %v", *got.SweepInterval)
	}
	// Setting one journal parameter preserves the other.
	if err := s.ApplyTuning(Tuning{CommitWindow: ptr(time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	got = s.Tuning()
	if *got.CommitWindow != time.Millisecond || *got.GroupMaxBatch != 7 {
		t.Fatalf("partial update clobbered: %v/%d", *got.CommitWindow, *got.GroupMaxBatch)
	}
	// RatePerSec <= 0 removes the purpose's limit.
	if err := s.ApplyTuning(Tuning{RateLimits: []RateLimit{{Purpose: "purpose3"}}}); err != nil {
		t.Fatal(err)
	}
	if got = s.Tuning(); len(got.RateLimits) != 0 {
		t.Fatalf("rate limit not removed: %+v", got.RateLimits)
	}
	// Undo the serial ablation so follow-on asserts below stay meaningful.
	if err := s.ApplyTuning(Tuning{SerialOps: ptr(false)}); err != nil {
		t.Fatal(err)
	}
	if got = s.Tuning(); *got.SerialOps {
		t.Fatal("SerialOps still set")
	}
}

// TestApplyTuningAndLayerSettersShareState pins the consolidation contract:
// a layer's own setter and the unified API act on the same state, so
// Tuning() reports what either wrote.
func TestApplyTuningAndLayerSettersShareState(t *testing.T) {
	s := bootTest(t)
	s.Rights().SetWorkers(5)
	if got := *s.Tuning().RightsWorkers; got != 5 {
		t.Fatalf("Tuning().RightsWorkers = %d after Engine.SetWorkers", got)
	}
	if err := s.ApplyTuning(Tuning{RightsWorkers: ptr(2)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Rights().Workers(); got != 2 {
		t.Fatalf("engine Workers() = %d after ApplyTuning", got)
	}
	s.DBFS().ConfigureMembraneCache(128)
	if got := *s.Tuning().MembraneCache; got != 128 {
		t.Fatalf("Tuning().MembraneCache = %d after Store.ConfigureMembraneCache", got)
	}
}

func TestApplyTuningSweeperLive(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, SweepInterval: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if *s.Tuning().SweepInterval != 2*time.Minute {
		t.Fatalf("boot SweepInterval = %v", *s.Tuning().SweepInterval)
	}
	sw := s.StartSweeper()
	defer sw.Stop()
	if sw.Interval() != 2*time.Minute {
		t.Fatalf("sweeper started at %v", sw.Interval())
	}
	if s.Sweeper() != sw {
		t.Fatal("Sweeper() does not return the started sweeper")
	}
	if err := s.ApplyTuning(Tuning{SweepInterval: ptr(30 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	if sw.Interval() != 30*time.Second {
		t.Fatalf("live sweeper interval = %v after ApplyTuning", sw.Interval())
	}
	if *s.Tuning().SweepInterval != 30*time.Second {
		t.Fatalf("Tuning().SweepInterval = %v", *s.Tuning().SweepInterval)
	}
}

// TestApplyTuningConcurrent hammers ApplyTuning, Tuning and the read paths
// from many goroutines; the race detector is the assertion.
func TestApplyTuningConcurrent(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				doc := Tuning{
					CommitWindow:        ptr(time.Duration(i%4) * time.Millisecond),
					AdmissionMaxPending: ptr(16 + (g*50+i)%32),
					MembraneCache:       ptr(256 + 64*(i%3)),
					RightsWorkers:       ptr(i % 4),
					SweepInterval:       ptr(time.Duration(30+i%30) * time.Second),
				}
				if err := s.ApplyTuning(doc); err != nil {
					t.Errorf("ApplyTuning: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			got := s.Tuning()
			if got.CommitWindow == nil || got.MembraneCache == nil {
				t.Error("Tuning snapshot missing fields")
				return
			}
		}
	}()
	wg.Wait()
}

// TestControlPlaneBoot verifies Options.Control wires one controller per
// knob, that their knobs mirror the booted configuration, and that
// ControlTick steers exclusively through ApplyTuning-visible state.
func TestControlPlaneBoot(t *testing.T) {
	s, err := Boot(Options{
		AuthorityBits:  1024,
		Control:        true,
		CommitWindow:   2 * time.Millisecond,
		AdmissionQueue: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := s.Controllers()
	byName := map[string]control.State{}
	for _, st := range states {
		byName[st.Name] = st
	}
	for _, want := range []string{"commit-window", "admission-queue", "sweep-interval", "membrane-cache"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("controller %q missing; have %v", want, states)
		}
	}
	if len(states) != 4 {
		t.Fatalf("len(Controllers) = %d, want 4", len(states))
	}
	if k := byName["commit-window"].Knob; k != 2.0 {
		t.Fatalf("commit-window knob = %v ms, want 2", k)
	}
	if k := byName["admission-queue"].Knob; k != 32 {
		t.Fatalf("admission-queue knob = %v, want 32", k)
	}
	if k := byName["sweep-interval"].Knob; k != rights.DefaultSweepInterval.Seconds() {
		t.Fatalf("sweep-interval knob = %v s", k)
	}
	// Ticks with no traffic read neutral signals everywhere: after the
	// converge streak every controller reports Converged with zero moves.
	for i := 0; i < control.DefaultConvergeAfter+1; i++ {
		s.ControlTick()
	}
	for _, st := range s.Controllers() {
		if st.Adjusts != 0 {
			t.Fatalf("%s moved on neutral signal: %+v", st.Name, st)
		}
		if !st.Converged {
			t.Fatalf("%s not converged after neutral ticks: %+v", st.Name, st)
		}
	}
}

// TestControlPlaneUnboundedAdmission pins the seeding rule: booting the
// control plane over an unbounded admission queue installs a finite bound
// (the controller cannot steer "unbounded").
func TestControlPlaneUnboundedAdmission(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, Control: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := *s.Tuning().AdmissionMaxPending; got != ctlAdmissionDefault {
		t.Fatalf("AdmissionMaxPending = %d, want seeded %d", got, ctlAdmissionDefault)
	}
}

// TestControlPlaneSkipsAblatedCache: with the membrane cache disabled at
// boot, no cache controller is created (it must not undo the ablation).
func TestControlPlaneSkipsAblatedCache(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, Control: true, MembraneCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range s.Controllers() {
		if st.Name == "membrane-cache" {
			t.Fatal("membrane-cache controller present despite ablation")
		}
	}
	if got := *s.Tuning().MembraneCache; got != -1 {
		t.Fatalf("MembraneCache = %d, want -1", got)
	}
}

// TestControlBackgroundLoop runs the group loop on the machine simclock:
// advance, Sync, and every controller has ticked.
func TestControlBackgroundLoop(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, Control: true, ControlInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := s.SimClock()
	if !ok {
		t.Fatal("default boot clock is not a simclock")
	}
	s.StartControl()
	defer s.StopControl()
	sim.Advance(time.Second)
	s.ctl.Sync()
	for _, st := range s.Controllers() {
		if st.Ticks == 0 {
			t.Fatalf("controller %s never ticked on the background loop", st.Name)
		}
	}
}

// TestControlConvergesOnCacheSignal drives a real signal end to end: a hot
// working set larger than a tiny cache starves the hit rate, and the
// controller grows the capacity through ApplyTuning until the rate enters
// the band.
func TestControlConvergesOnCacheSignal(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, Control: true, MembraneCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	setupUserType(t, s)
	tok := s.DEDToken()
	pdids := make([]string, 0, 256)
	for i := 0; i < 256; i++ {
		subj := fmt.Sprintf("c%03d", i)
		pdid, err := s.DBFS().Insert(tok, "user", subj, dbfs.Record{
			"name": dbfs.S("u" + subj), "pwd": dbfs.S("pw"), "year_of_birthdate": dbfs.I(1990),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		pdids = append(pdids, pdid)
	}
	grew := false
	for round := 0; round < 40; round++ {
		for _, pdid := range pdids {
			if _, err := s.DBFS().GetMembrane(tok, pdid); err != nil {
				t.Fatal(err)
			}
		}
		s.ControlTick()
		for _, st := range s.Controllers() {
			if st.Name == "membrane-cache" && st.Knob > 64 {
				grew = true
			}
		}
		if grew {
			break
		}
	}
	if !grew {
		t.Fatalf("cache controller never grew a starved cache: %+v", s.Controllers())
	}
	// The move went through the tuning API: the snapshot sees it.
	if got := *s.Tuning().MembraneCache; got <= 64 {
		t.Fatalf("Tuning().MembraneCache = %d, knob move bypassed the API?", got)
	}
}
