// The macro scorecard: per-op-class throughput and tail latency (shared
// power-of-two histogram from internal/latencyhist) plus the regulator
// invariants. Its JSON encoding is deterministic (fixed field order,
// canonical class order), so TestSC9Golden compares it byte for byte with
// testdata/sc9.golden.json; WriteScorecard narrates it for humans.

package workload

import (
	"fmt"
	"io"
	"time"

	"repro/internal/latencyhist"
)

// ClassStats is one op class's scorecard row.
type ClassStats struct {
	Class string `json:"class"`
	// Issued counts generated ops; the four outcomes partition them.
	Issued   uint64 `json:"issued"`
	OK       uint64 `json:"ok"`
	Rejected uint64 `json:"rejected"`
	Denied   uint64 `json:"denied"`
	Failed   uint64 `json:"failed"`
	// OpsPerSec is successful ops per simulated second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Latency tails in microseconds, from the simulated device-op cost
	// model (conservative bucket upper bounds).
	P50us  int64 `json:"p50_us"`
	P99us  int64 `json:"p99_us"`
	P999us int64 `json:"p999_us"`
}

// InvariantReport carries the model-vs-machine checks. The first three
// must be exactly zero; AccessChecked proves the consent check actually
// ran.
type InvariantReport struct {
	// ResidueHits counts raw-device plaintext hits of erased secrets over
	// a deterministic sample of ResidueChecked secrets.
	ResidueHits    int `json:"residue_hits"`
	ResidueChecked int `json:"residue_checked"`
	// ErasedReadable counts erased pdids that still serve reads.
	ErasedReadable int `json:"erased_readable"`
	// ConsentMismatches counts access-report exports whose consents
	// disagree with the shadow model.
	ConsentMismatches int `json:"consent_mismatches"`
	// AccessChecked counts records the consent-consistency check
	// compared (must be > 0 for the check to mean anything).
	AccessChecked int `json:"access_checked"`
	// ErasedSubjects / ErasedRecords / SweptRecords / SeededSubjects are
	// context counters, reported but not gated exactly.
	ErasedSubjects int `json:"erased_subjects"`
	ErasedRecords  int `json:"erased_records"`
	SweptRecords   int `json:"swept_records"`
	SeededSubjects int `json:"seeded_subjects"`
}

// Scorecard is one scenario run's full result.
type Scorecard struct {
	Scenario    string          `json:"scenario"`
	Title       string          `json:"title"`
	Target      string          `json:"target"`
	Mix         string          `json:"mix"`
	Seed        uint64          `json:"seed"`
	Small       bool            `json:"small"`
	Subjects    int             `json:"subjects"`
	DurationSec float64         `json:"duration_sec"`
	Ops         int             `json:"ops"`
	Classes     []ClassStats    `json:"classes"`
	Invariants  InvariantReport `json:"invariants"`

	hists  map[OpClass]*latencyhist.Hist
	counts map[OpClass]*ClassStats
}

func newScorecard(sc Scenario, target string, mix MacroMix, cfg RunConfig) *Scorecard {
	card := &Scorecard{
		Scenario:    sc.Name,
		Title:       sc.Title,
		Target:      target,
		Mix:         mix.Name,
		Seed:        cfg.Seed,
		Small:       cfg.Small,
		Subjects:    mix.Subjects,
		DurationSec: mix.Duration.Seconds(),
		hists:       make(map[OpClass]*latencyhist.Hist),
		counts:      make(map[OpClass]*ClassStats),
	}
	for _, c := range Classes {
		card.hists[c] = &latencyhist.Hist{}
		card.counts[c] = &ClassStats{Class: c.String()}
	}
	return card
}

// observe folds one executed op into the card.
func (s *Scorecard) observe(c OpClass, out outcome, lat time.Duration) {
	row := s.counts[c]
	row.Issued++
	switch out {
	case outcomeOK:
		row.OK++
	case outcomeRejected:
		row.Rejected++
	case outcomeDenied:
		row.Denied++
	default:
		row.Failed++
	}
	s.hists[c].Observe(lat)
	s.Ops++
}

// finish freezes the per-class rows in canonical class order, dropping
// classes the mix never issued.
func (s *Scorecard) finish(mix MacroMix) {
	s.Classes = s.Classes[:0]
	for _, c := range Classes {
		row := s.counts[c]
		if row.Issued == 0 {
			continue
		}
		row.OpsPerSec = float64(row.OK) / mix.Duration.Seconds()
		h := s.hists[c]
		row.P50us = h.Quantile(0.50).Microseconds()
		row.P99us = h.Quantile(0.99).Microseconds()
		row.P999us = h.Quantile(0.999).Microseconds()
		s.Classes = append(s.Classes, *row)
	}
}

// Clean reports whether every exact invariant holds.
func (s *Scorecard) Clean() bool {
	inv := s.Invariants
	return inv.ResidueHits == 0 && inv.ErasedReadable == 0 &&
		inv.ConsentMismatches == 0 && inv.AccessChecked > 0
}

// WriteScorecard narrates the card for humans (examples, rgpdctl macro).
func WriteScorecard(w io.Writer, s *Scorecard) {
	fmt.Fprintf(w, "scenario %s (%s) on %s: %d subjects, %.0fs simulated, %d ops\n",
		s.Scenario, s.Title, s.Target, s.Subjects, s.DurationSec, s.Ops)
	fmt.Fprintf(w, "  %-13s %8s %8s %8s %8s %8s %10s %8s %8s %8s\n",
		"class", "issued", "ok", "rejected", "denied", "failed", "ok-ops/s", "p50us", "p99us", "p99.9us")
	for _, row := range s.Classes {
		fmt.Fprintf(w, "  %-13s %8d %8d %8d %8d %8d %10.2f %8d %8d %8d\n",
			row.Class, row.Issued, row.OK, row.Rejected, row.Denied, row.Failed,
			row.OpsPerSec, row.P50us, row.P99us, row.P999us)
	}
	inv := s.Invariants
	fmt.Fprintf(w, "  invariants: residue=%d/%d erased-readable=%d consent-mismatch=%d (checked %d)",
		inv.ResidueHits, inv.ResidueChecked, inv.ErasedReadable, inv.ConsentMismatches, inv.AccessChecked)
	fmt.Fprintf(w, " | erased %d subjects / %d records, swept %d expired\n",
		inv.ErasedSubjects, inv.ErasedRecords, inv.SweptRecords)
	if s.Clean() {
		fmt.Fprintln(w, "  all exact invariants hold")
	} else {
		fmt.Fprintln(w, "  INVARIANT VIOLATION — see counters above")
	}
}
