package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Exactly the gated experiments in DESIGN.md's experiment index.
	want := []string{"SC7", "SC8", "SC9"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Paper == "" || reg[i].Title == "" || reg[i].Run == nil {
			t.Fatalf("experiment %s incomplete: %+v", id, reg[i])
		}
	}
	if _, ok := Lookup("SC9"); !ok {
		t.Fatal("Lookup(SC9) failed")
	}
	if _, ok := Lookup("ghost"); ok {
		t.Fatal("Lookup(ghost) succeeded")
	}
}

// TestEveryExperimentRunsSmall executes the full registry in Small mode:
// the same code paths benchfig runs, kept fast for CI.
func TestEveryExperimentRunsSmall(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var out strings.Builder
			if err := RunOne(&out, e, Params{Seed: 42, Small: true}); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, out.String())
			}
			if out.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}
