// Package workload generates the deterministic populations and operation
// traces driving the benchmark harness: synthetic subjects, Listing-1-style
// user records, Zipf-skewed subject pickers, and (macro.go) the seeded
// GDPRBench-style macro mixes.
package workload

import (
	"strconv"

	"repro/internal/dbfs"
	"repro/internal/xrand"
)

// firstNames and lastNames seed the synthetic identities.
var (
	firstNames = []string{
		"Alice", "Bob", "Chiraz", "David", "Emma", "Farid", "Grace", "Hugo",
		"Ines", "Jules", "Karim", "Lea", "Mohamed", "Nora", "Omar", "Paula",
		"Quentin", "Rania", "Sofia", "Thomas", "Uma", "Victor", "Wassim", "Yara",
	}
	lastNames = []string{
		"Martin", "Benamor", "Bernard", "Dubois", "Durand", "Garcia", "Khelifi",
		"Laurent", "Lefebvre", "Moreau", "Nguyen", "Petit", "Richard", "Robert",
		"Rossi", "Silva", "Stone", "Tchana", "Weber", "Zidane",
	}
)

// SubjectIDs generates n deterministic subject identifiers.
func SubjectIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "s" + pad6(i+1)
	}
	return out
}

func pad6(n int) string {
	s := strconv.Itoa(n)
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// UserRecord generates a Listing-1-style user record for a subject.
func UserRecord(rng *xrand.RNG, subjectID string) dbfs.Record {
	first := xrand.Pick(rng, firstNames)
	last := xrand.Pick(rng, lastNames)
	return dbfs.Record{
		"name":              dbfs.S(first + " " + last + " (" + subjectID + ")"),
		"pwd":               dbfs.S("pw-" + subjectID),
		"year_of_birthdate": dbfs.I(int64(1940 + rng.Intn(70))),
	}
}

// Picker selects subjects with Zipf skew (hot subjects exist in every real
// population) or uniformly when skew <= 1.
type Picker struct {
	subjects []string
	zipf     *xrand.Zipf
	rng      *xrand.RNG
}

// NewPicker builds a subject picker over ids with the given skew.
func NewPicker(rng *xrand.RNG, ids []string, skew float64) *Picker {
	p := &Picker{subjects: ids, rng: rng}
	if skew > 1 && len(ids) > 1 {
		p.zipf = xrand.NewZipf(rng, skew, 1, uint64(len(ids)-1))
	}
	return p
}

// Pick returns a subject id.
func (p *Picker) Pick() string {
	if len(p.subjects) == 0 {
		return ""
	}
	if p.zipf != nil {
		return p.subjects[int(p.zipf.Uint64())]
	}
	return p.subjects[p.rng.Intn(len(p.subjects))]
}
