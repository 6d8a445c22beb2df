package core

// Tests for the unified runtime-tuning API (ApplyTuning / Tuning):
// validation rejects whole documents, every knob round-trips, boot-time
// knobs show in the snapshot, and concurrent appliers and snapshotters are
// race-free.

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
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
		SweepInterval:       ptr(90 * time.Second),
		ColdAfter:           ptr(6 * time.Hour),
		RepackInterval:      ptr(2 * time.Minute),
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
	if *got.MembraneCache != 512 || *got.RightsWorkers != 3 {
		t.Fatalf("cache/workers = %d/%d", *got.MembraneCache, *got.RightsWorkers)
	}
	if *got.SweepInterval != 90*time.Second {
		t.Fatalf("SweepInterval = %v", *got.SweepInterval)
	}
	if *got.ColdAfter != 6*time.Hour || *got.RepackInterval != 2*time.Minute {
		t.Fatalf("cold knobs = %v/%v", *got.ColdAfter, *got.RepackInterval)
	}
	// The snapshot is a complete document: applying it back changes nothing.
	if err := s.ApplyTuning(got); err != nil {
		t.Fatalf("ApplyTuning(Tuning()): %v", err)
	}
	if again := s.Tuning(); !reflect.DeepEqual(again, got) {
		t.Fatalf("snapshot did not round-trip: %+v vs %+v", again, got)
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
}

// TestApplyTuningSnapshotKeepsRateLimitTokens: re-applying a snapshot is a
// no-op for rate limits too — it must not refill a purpose's token bucket
// and let the purpose burst again.
func TestApplyTuningSnapshotKeepsRateLimitTokens(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s)
	if err := s.ApplyTuning(Tuning{RateLimits: []RateLimit{{Purpose: "purpose3", RatePerSec: 1, Burst: 2}}}); err != nil {
		t.Fatal(err)
	}
	adm := s.PS().Admission()
	for i := 0; i < 2; i++ {
		release, err := adm.Admit("purpose3")
		if err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
		release(0)
	}
	if err := s.ApplyTuning(s.Tuning()); err != nil {
		t.Fatalf("ApplyTuning(Tuning()): %v", err)
	}
	if _, err := adm.Admit("purpose3"); !errors.Is(err, admission.ErrRateLimited) {
		t.Fatalf("admit after snapshot re-apply: err = %v, want ErrRateLimited", err)
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
	s, err := Boot(Options{
		AuthorityBits:  1024,
		SweepInterval:  2 * time.Minute,
		CommitWindow:   2 * time.Millisecond,
		AdmissionQueue: 32,
		MembraneCache:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Boot-time knobs show in the snapshot, a cache ablation included.
	if got := s.Tuning(); *got.SweepInterval != 2*time.Minute || *got.CommitWindow != 2*time.Millisecond ||
		*got.AdmissionMaxPending != 32 || *got.MembraneCache != -1 {
		t.Fatalf("boot knobs: sweep %v window %v admission %d cache %d",
			*got.SweepInterval, *got.CommitWindow, *got.AdmissionMaxPending, *got.MembraneCache)
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
