package core

// The unified runtime-tuning API. Every runtime knob has its own setter in
// its layer (ps.ConfigureAdmission / SetRateLimit, dbfs.ConfigureMembraneCache,
// rights.SetWorkers, inode ConfigureJournal, the sweeper's and
// repacker's SetInterval); this file puts them behind one Tuning document:
// ApplyTuning validates the whole document up front (a bad document
// applies nothing), then applies each present knob atomically, and
// Tuning() snapshots every knob's current value. The per-layer setters are
// what ApplyTuning calls, and Boot installs its boot-time knobs through
// ApplyTuning too, so System.Tuning() always reports the live value of every
// knob whoever set it.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coldtier"
	"repro/internal/rights"
)

// ErrBadTuning reports a Tuning document that failed validation; nothing
// from the document was applied.
var ErrBadTuning = errors.New("core: invalid tuning")

// RateLimit is one purpose's token-bucket setting inside a Tuning
// document. RatePerSec <= 0 removes the purpose's limit.
type RateLimit struct {
	Purpose    string  `json:"purpose"`
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      float64 `json:"burst"`
}

// Tuning is the machine's runtime-knob document: nil fields are "leave
// unchanged", set fields are applied by ApplyTuning and reported by
// System.Tuning(). Durations marshal as nanosecond integers.
type Tuning struct {
	// CommitWindow / GroupMaxBatch are the journals' group-commit
	// parameters, applied to every DBFS filesystem instance (setting one
	// preserves the other). GroupMaxBatch 0 restores the wal default.
	CommitWindow  *time.Duration `json:"commit_window,omitempty"`
	GroupMaxBatch *int           `json:"group_max_batch,omitempty"`
	// AdmissionMaxPending re-bounds the admission queue (0 = unbounded).
	AdmissionMaxPending *int `json:"admission_max_pending,omitempty"`
	// RateLimits installs (or, with RatePerSec <= 0, removes) per-purpose
	// token buckets. Purposes must be registered.
	RateLimits []RateLimit `json:"rate_limits,omitempty"`
	// MembraneCache re-bounds the decoded-membrane cache (0 = the dbfs
	// default, negative disables; resizes preserve entries).
	MembraneCache *int `json:"membrane_cache,omitempty"`
	// RightsWorkers overrides the rights engine's fan-out width (0 =
	// follow the executor pool).
	RightsWorkers *int `json:"rights_workers,omitempty"`
	// SweepInterval re-paces the retention sweeper, running or not.
	SweepInterval *time.Duration `json:"sweep_interval,omitempty"`
	// ColdAfter is the cold tier's idle threshold: records untouched this
	// long demote to their subject's compressed archive on the repacker's
	// next pass (0 disables demotion; promotion always works).
	ColdAfter *time.Duration `json:"cold_after,omitempty"`
	// RepackInterval re-paces the cold-tier repacker, running or not.
	RepackInterval *time.Duration `json:"repack_interval,omitempty"`
}

// validateTuning checks every present field; caller holds tuneMu.
func (s *System) validateTuning(t Tuning) error {
	if t.CommitWindow != nil && *t.CommitWindow < 0 {
		return fmt.Errorf("%w: commit window %v negative", ErrBadTuning, *t.CommitWindow)
	}
	if t.GroupMaxBatch != nil && *t.GroupMaxBatch < 0 {
		return fmt.Errorf("%w: group max batch %d negative", ErrBadTuning, *t.GroupMaxBatch)
	}
	if t.AdmissionMaxPending != nil {
		if *t.AdmissionMaxPending < 0 {
			return fmt.Errorf("%w: admission max pending %d negative", ErrBadTuning, *t.AdmissionMaxPending)
		}
		if s.ps.Admission() == nil {
			return fmt.Errorf("%w: admission max pending: no admission controller configured", ErrBadTuning)
		}
	}
	for _, rl := range t.RateLimits {
		if rl.Purpose == "" {
			return fmt.Errorf("%w: rate limit with empty purpose", ErrBadTuning)
		}
		if _, err := s.ps.Get(rl.Purpose); err != nil {
			return fmt.Errorf("%w: rate limit purpose %q: %v", ErrBadTuning, rl.Purpose, err)
		}
		if rl.Burst < 0 {
			return fmt.Errorf("%w: rate limit %q: negative burst %v", ErrBadTuning, rl.Purpose, rl.Burst)
		}
		if s.ps.Admission() == nil {
			return fmt.Errorf("%w: rate limit %q: no admission controller configured", ErrBadTuning, rl.Purpose)
		}
	}
	if t.RightsWorkers != nil && *t.RightsWorkers < 0 {
		return fmt.Errorf("%w: rights workers %d negative", ErrBadTuning, *t.RightsWorkers)
	}
	if t.SweepInterval != nil && *t.SweepInterval <= 0 {
		return fmt.Errorf("%w: sweep interval %v not positive", ErrBadTuning, *t.SweepInterval)
	}
	if t.ColdAfter != nil && *t.ColdAfter < 0 {
		return fmt.Errorf("%w: cold after %v negative", ErrBadTuning, *t.ColdAfter)
	}
	if t.RepackInterval != nil && *t.RepackInterval <= 0 {
		return fmt.Errorf("%w: repack interval %v not positive", ErrBadTuning, *t.RepackInterval)
	}
	return nil
}

// ApplyTuning validates the whole document, then applies every present
// knob. Validation failures wrap ErrBadTuning and apply nothing; after
// validation each knob applies atomically (its setter is a single
// runtime-safe operation), and present knobs apply in struct order.
// Concurrent ApplyTuning calls serialize.
func (s *System) ApplyTuning(t Tuning) error {
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	if err := s.validateTuning(t); err != nil {
		return err
	}
	if t.CommitWindow != nil || t.GroupMaxBatch != nil {
		// One knob document must not clobber the other parameter: read
		// the current pair and overwrite only what is present.
		window, maxBatch := s.pdFSs[0].JournalConfig()
		if t.CommitWindow != nil {
			window = *t.CommitWindow
		}
		if t.GroupMaxBatch != nil {
			maxBatch = *t.GroupMaxBatch
		}
		for _, fs := range s.pdFSs {
			fs.ConfigureJournal(window, maxBatch)
		}
	}
	if t.AdmissionMaxPending != nil {
		s.ps.Admission().SetMaxPending(*t.AdmissionMaxPending)
	}
	for _, rl := range t.RateLimits {
		if err := s.ps.SetRateLimit(rl.Purpose, rl.RatePerSec, rl.Burst); err != nil {
			// Unreachable after validation unless the purpose was
			// unregistered concurrently; surface it typed either way.
			return fmt.Errorf("%w: rate limit %q: %v", ErrBadTuning, rl.Purpose, err)
		}
	}
	if t.MembraneCache != nil {
		s.store.ConfigureMembraneCache(*t.MembraneCache)
	}
	if t.RightsWorkers != nil {
		s.rights.SetWorkers(*t.RightsWorkers)
	}
	if t.SweepInterval != nil {
		s.rights.Sweeper().SetInterval(*t.SweepInterval)
	}
	if t.ColdAfter != nil {
		s.store.ConfigureColdTier(*t.ColdAfter)
	}
	if t.RepackInterval != nil {
		s.repacker.SetInterval(*t.RepackInterval)
	}
	return nil
}

// Tuning snapshots every runtime knob's current value; all fields are
// non-nil. Round-trips through ApplyTuning.
func (s *System) Tuning() Tuning {
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	window, maxBatch := s.pdFSs[0].JournalConfig()
	cache := s.store.MembraneCacheCap()
	workers := s.rights.Workers()
	sweep := s.rights.Sweeper().Interval()
	coldAfter := s.store.ColdAfter()
	repack := s.repacker.Interval()
	t := Tuning{
		CommitWindow:   &window,
		GroupMaxBatch:  &maxBatch,
		MembraneCache:  &cache,
		RightsWorkers:  &workers,
		SweepInterval:  &sweep,
		ColdAfter:      &coldAfter,
		RepackInterval: &repack,
	}
	if adm := s.ps.Admission(); adm != nil {
		mp := adm.MaxPending()
		t.AdmissionMaxPending = &mp
		for _, l := range adm.Limits() {
			t.RateLimits = append(t.RateLimits, RateLimit{
				Purpose: l.Purpose, RatePerSec: l.RatePerSec, Burst: l.Burst,
			})
		}
	}
	return t
}

// StartSweeper starts the machine's background retention sweeper — the
// rights engine's one sweeper — and returns it; if it is already running it
// is returned unchanged. Its cadence is ApplyTuning's SweepInterval, before
// and after the start.
func (s *System) StartSweeper() *rights.Sweeper {
	sw := s.rights.Sweeper()
	sw.Start()
	return sw
}

// Sweeper returns the machine's retention sweeper (stopped until
// StartSweeper).
func (s *System) Sweeper() *rights.Sweeper { return s.rights.Sweeper() }

// StartRepacker starts the machine's background cold-tier repacker and
// returns it; if it is already running it is returned unchanged. The
// repacker drives dbfs.Store.RepackCold with the DED's capability at
// ApplyTuning's RepackInterval. With ColdAfter unset the passes run and
// demote nothing.
func (s *System) StartRepacker() *coldtier.Repacker {
	s.repacker.Start()
	return s.repacker
}

// Repacker returns the machine's cold-tier repacker (stopped until
// StartRepacker).
func (s *System) Repacker() *coldtier.Repacker { return s.repacker }
