package core

// Tests for the cold-tier wiring: boot-time knobs route through ApplyTuning,
// the tuning document validates and round-trips the cold knobs, the
// background repacker demotes on the machine clock with reads staying
// transparent.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dbfs"
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

func TestBootColdTierWiring(t *testing.T) {
	s, err := Boot(Options{AuthorityBits: 1024, ColdAfter: time.Hour, ColdInterval: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Tuning()
	if *got.ColdAfter != time.Hour {
		t.Fatalf("Tuning().ColdAfter = %v, want 1h (boot knob must route through the tuning API)", *got.ColdAfter)
	}
	if *got.RepackInterval != 30*time.Second {
		t.Fatalf("Tuning().RepackInterval = %v, want 30s", *got.RepackInterval)
	}
	if s.DBFS().ColdAfter() != time.Hour {
		t.Fatalf("store ColdAfter = %v", s.DBFS().ColdAfter())
	}
}

func TestApplyTuningColdValidation(t *testing.T) {
	s := bootTest(t)
	for _, tc := range []struct {
		name string
		doc  Tuning
	}{
		{"negative cold after", Tuning{ColdAfter: ptr(-time.Second)}},
		{"zero repack interval", Tuning{RepackInterval: ptr(time.Duration(0))}},
	} {
		if err := s.ApplyTuning(tc.doc); !errors.Is(err, ErrBadTuning) {
			t.Fatalf("%s: err = %v, want ErrBadTuning", tc.name, err)
		}
	}
}

func TestApplyTuningColdRoundTripAndLiveRepacker(t *testing.T) {
	s := bootTest(t)
	if err := s.ApplyTuning(Tuning{ColdAfter: ptr(2 * time.Hour), RepackInterval: ptr(45 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	got := s.Tuning()
	if *got.ColdAfter != 2*time.Hour || *got.RepackInterval != 45*time.Second {
		t.Fatalf("cold knobs = %v/%v", *got.ColdAfter, *got.RepackInterval)
	}
	rp := s.StartRepacker()
	defer rp.Stop()
	if rp.Interval() != 45*time.Second {
		t.Fatalf("repacker started at %v, want the tuned 45s", rp.Interval())
	}
	if s.Repacker() != rp {
		t.Fatal("Repacker() does not return the started repacker")
	}
	if err := s.ApplyTuning(Tuning{RepackInterval: ptr(time.Minute)}); err != nil {
		t.Fatal(err)
	}
	if rp.Interval() != time.Minute {
		t.Fatalf("live repacker interval = %v after ApplyTuning", rp.Interval())
	}
	// ColdAfter 0 disables demotion without touching the repacker.
	if err := s.ApplyTuning(Tuning{ColdAfter: ptr(time.Duration(0))}); err != nil {
		t.Fatal(err)
	}
	if s.DBFS().ColdAfter() != 0 {
		t.Fatalf("ColdAfter = %v after disable", s.DBFS().ColdAfter())
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
	if st := rp.Stats(); st.Demoted < 1 {
		t.Fatalf("repacker Stats = %+v, want at least one demotion", st)
	}
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
