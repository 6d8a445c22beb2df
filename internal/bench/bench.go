// Package bench is the experiment harness for the gated scale experiments
// SC7–SC9 (DESIGN.md "Experiment index"). Each prints a text table and,
// with Params.JSONDir set, writes its deterministic device-op counts as
// BENCH_<ID>.json for cmd/benchgate. cmd/benchfig exposes the registry on
// the command line. The paper's qualitative claims are held by exact tests
// in the owning packages; wall-clock cost lives in benchmarks/.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/typedsl"
)

// Params tunes an experiment run.
type Params struct {
	// Seed drives all randomness.
	Seed uint64
	// Subjects sizes the PD population (0 = experiment default).
	Subjects int
	// Small switches to the fast configuration used by tests.
	Small bool
	// JSONDir, when set, makes experiments with machine-readable results
	// additionally write them as BENCH_<ID>.json files there (the format
	// the CI bench gate compares against BENCH_baseline.json).
	JSONDir string
}

func (p Params) subjects(def, small int) int {
	if p.Subjects > 0 {
		return p.Subjects
	}
	if p.Small {
		return small
	}
	return def
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper names the paper artifact this regenerates.
	Paper string
	Run   func(w io.Writer, p Params) error
}

// Registry lists every experiment in DESIGN.md order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "SC7", Title: "Content-addressable compressed cold tier: footprint, promotion, shred safety", Paper: "storage limitation at scale (north star)", Run: runSC7},
		{ID: "SC8", Title: "Multi-node subject routing: scaling + cross-node erasure propagation", Paper: "multi-machine controllers (§5), scaled (north star)", Run: runSC8},
		{ID: "SC9", Title: "GDPRBench-style macro workloads: per-class tails + regulator invariants", Paper: "realistic controller traffic, scaled (north star)", Run: runSC9},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, p Params) error {
	for _, e := range Registry() {
		if err := RunOne(w, e, p); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes one experiment with its header.
func RunOne(w io.Writer, e Experiment, p Params) error {
	fmt.Fprintf(w, "\n=== %s — %s (reproduces %s) ===\n", e.ID, e.Title, e.Paper)
	if err := e.Run(w, p); err != nil {
		return fmt.Errorf("bench: %s: %w", e.ID, err)
	}
	return nil
}

// --- shared rig ---

// listing1DSL is the paper's type, with the sensitive extension on pwd.
const listing1DSL = `
type user {
  fields {
    name: string,
    pwd: string sensitive,
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { age };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: ano
  };
  collection {
    web_form: user_form.html,
    third_party: fetch_data.py
  };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}
`

func aliasOpts() typedsl.CompileOptions {
	return typedsl.CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}}
}

// table prints aligned rows.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "  %-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// writeJSON emits one experiment's machine-readable results as
// BENCH_<id>.json under p.JSONDir; with no JSONDir set it is a no-op.
func writeJSON(p Params, id string, v any) error {
	if p.JSONDir == "" {
		return nil
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode %s results: %w", id, err)
	}
	raw = append(raw, '\n')
	if err := os.MkdirAll(p.JSONDir, 0o755); err != nil {
		return fmt.Errorf("bench: create %s: %w", p.JSONDir, err)
	}
	path := filepath.Join(p.JSONDir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: write %s results: %w", id, err)
	}
	return nil
}
