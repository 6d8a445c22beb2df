package workload

import (
	"testing"

	"repro/internal/xrand"
)

func TestSubjectIDsDeterministic(t *testing.T) {
	a := SubjectIDs(100)
	b := SubjectIDs(100)
	if len(a) != 100 || a[0] != "s000001" || a[99] != "s000100" {
		t.Fatalf("ids = %v...", a[:3])
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SubjectIDs not deterministic")
		}
	}
	seen := map[string]bool{}
	for _, id := range a {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestUserRecordShape(t *testing.T) {
	rng := xrand.New(1)
	rec := UserRecord(rng, "s000042")
	if rec["name"].S == "" || rec["pwd"].S != "pw-s000042" {
		t.Fatalf("rec = %v", rec)
	}
	yob := rec["year_of_birthdate"].I
	if yob < 1940 || yob >= 2010 {
		t.Fatalf("yob = %d", yob)
	}
	// Determinism.
	rec2 := UserRecord(xrand.New(1), "s000042")
	if rec["name"].S != rec2["name"].S {
		t.Fatal("UserRecord not deterministic")
	}
}

func TestPickerZipfSkew(t *testing.T) {
	rng := xrand.New(4)
	ids := SubjectIDs(1000)
	p := NewPicker(rng, ids, 1.2)
	counts := map[string]int{}
	for i := 0; i < 50000; i++ {
		counts[p.Pick()]++
	}
	// The head subject must dominate the median one.
	if counts[ids[0]] < 50*counts[ids[500]]/10 && counts[ids[0]] < 100 {
		t.Fatalf("no skew: head=%d mid=%d", counts[ids[0]], counts[ids[500]])
	}
}

func TestPickerUniform(t *testing.T) {
	rng := xrand.New(5)
	ids := SubjectIDs(10)
	p := NewPicker(rng, ids, 0)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[p.Pick()]++
	}
	for _, id := range ids {
		if counts[id] < 800 || counts[id] > 1200 {
			t.Fatalf("uniform counts = %v", counts)
		}
	}
}

func TestPickerEmpty(t *testing.T) {
	p := NewPicker(xrand.New(1), nil, 1.5)
	if got := p.Pick(); got != "" {
		t.Fatalf("empty Pick = %q", got)
	}
}
