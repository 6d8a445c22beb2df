package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every experiment in DESIGN.md's per-experiment index must exist.
	want := []string{"F1L", "F1R", "F2V1", "F2V2", "F3", "F4P", "L1", "L23",
		"IA", "IF", "OV1", "OV2", "OV3", "OV4", "OV5", "OV6", "SC7", "SC8", "SC9"}
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
	if _, ok := Lookup("F2V1"); !ok {
		t.Fatal("Lookup(F2V1) failed")
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

func TestExpectationsHold(t *testing.T) {
	// The headline claims must be visible in the experiment outputs.
	var out strings.Builder
	e, _ := Lookup("F2V1")
	if err := e.Run(&out, Params{Seed: 1, Small: true}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "baseline") || !strings.Contains(s, "rgpdOS") {
		t.Fatalf("F2V1 output:\n%s", s)
	}
	// The baseline line must report violated=true, the rgpdOS line false.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "baseline (Fig.2)") && !strings.Contains(line, "true") {
			t.Fatalf("baseline did not violate: %s", line)
		}
		if strings.Contains(line, "rgpdOS") && strings.Contains(line, "true") {
			t.Fatalf("rgpdOS violated: %s", line)
		}
	}
}
