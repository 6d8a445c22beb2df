package workload

import (
	"testing"

	"repro/internal/golden"
)

// sc9Report is the schema of testdata/sc9.golden.json: one scorecard per
// scenario, in library order.
type sc9Report struct {
	Experiment string       `json:"experiment"`
	Schema     int          `json:"schema"`
	Scenarios  []*Scorecard `json:"scenarios"`
}

// TestSC9Golden runs every library scenario's small mix at seed 42 against
// a freshly booted machine, paced on simclock with latency in simulated
// device ops, holds each scenario (one subtest per scenario) to the
// regulator invariants, and holds the whole report to
// testdata/sc9.golden.json.
func TestSC9Golden(t *testing.T) {
	const seed = 42
	report := sc9Report{Experiment: "SC9", Schema: 1}
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			mix := sc.MixFor(true)
			ops, err := Generate(mix, seed)
			if err != nil {
				t.Fatal(err)
			}
			sys := bootMacroSystem(t, mix, ops, seed)
			card, err := RunScenario(NewSystemTarget(sys), sc, RunConfig{Seed: seed, Small: true, Pace: true})
			if err != nil {
				t.Fatal(err)
			}
			// The three checks together are card.Clean() plus a non-empty
			// residue sample, each named so a failure says which broke.
			inv := card.Invariants
			if inv.ResidueHits != 0 || inv.ResidueChecked == 0 {
				t.Errorf("residue_zero: %d plaintext hits over %d erased secrets checked", inv.ResidueHits, inv.ResidueChecked)
			}
			if inv.ErasedReadable != 0 {
				t.Errorf("erased_unreadable: %d erased records still readable", inv.ErasedReadable)
			}
			if inv.ConsentMismatches != 0 || inv.AccessChecked == 0 {
				t.Errorf("consent_consistent: %d mismatches over %d records checked", inv.ConsentMismatches, inv.AccessChecked)
			}
			report.Scenarios = append(report.Scenarios, card)
		})
	}
	golden.JSON(t, "testdata/sc9.golden.json", &report)
}
