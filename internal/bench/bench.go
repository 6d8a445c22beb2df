// Package bench is the experiment harness: one registered experiment per
// figure/listing/illustration of the paper (DESIGN.md §3), each regenerating
// its artifact as text tables/charts on a writer. cmd/benchfig exposes the
// registry on the command line; bench_test.go wraps the same code paths in
// testing.B benchmarks.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/ded"
	"repro/internal/purpose"
	"repro/internal/typedsl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Params tunes an experiment run.
type Params struct {
	// Seed drives all randomness.
	Seed uint64
	// Subjects sizes the PD population (0 = experiment default).
	Subjects int
	// Ops sizes operation counts (0 = experiment default).
	Ops int
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

func (p Params) ops(def, small int) int {
	if p.Ops > 0 {
		return p.Ops
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
		{ID: "F1L", Title: "Total GDPR penalties per year", Paper: "Figure 1 (left)", Run: runF1L},
		{ID: "F1R", Title: "Top-5 sanctioned sectors", Paper: "Figure 1 (right)", Run: runF1R},
		{ID: "F2V1", Title: "Journal/free-space residue after delete (baseline vs rgpdOS)", Paper: "Figure 2 + §1 claim", Run: runF2V1},
		{ID: "F2V2", Title: "Use-after-free cross-PD read (process- vs data-centric)", Paper: "Figure 2 + Idea 2", Run: runF2V2},
		{ID: "F3", Title: "Active-data membrane enforcement across consent densities", Paper: "Figure 3", Run: runF3},
		{ID: "F4P", Title: "DED pipeline stage breakdown", Paper: "Figure 4", Run: runF4P},
		{ID: "L1", Title: "Type-declaration DSL on the paper's Listing 1", Paper: "Listing 1", Run: runL1},
		{ID: "L23", Title: "Purpose-annotated processing via ps_invoke", Paper: "Listings 2-3", Run: runL23},
		{ID: "IA", Title: "Right of access: structured export + processing log", Paper: "§4 illustration", Run: runIA},
		{ID: "IF", Title: "Right to be forgotten: crypto-erasure with escrow", Paper: "§4 illustration", Run: runIF},
		{ID: "OV1", Title: "End-to-end overhead vs baseline DB and raw map", Paper: "implicit cost of §1", Run: runOV1},
		{ID: "OV2", Title: "Membrane cost attribution across consent densities", Paper: "§2 membrane design", Run: runOV2},
		{ID: "OV3", Title: "Purpose-kernel IPC cost (split vs monolithic)", Paper: "§2 kernel model", Run: runOV3},
		{ID: "OV4", Title: "DBFS vs plain file-based FS at record granularity", Paper: "§2 DBFS", Run: runOV4},
		{ID: "OV5", Title: "Sensitive-field separation cost", Paper: "§2 sensitivity levels", Run: runOV5},
		{ID: "OV6", Title: "TTL sweeper (storage limitation)", Paper: "§2/§4 TTL", Run: runOV6},
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

// bootOpts sizes the machine for n subjects.
func bootOpts(n int) core.Options {
	blocks := uint64(16384)
	inodes := uint64(8192)
	for blocks < uint64(n)*24+4096 {
		blocks *= 2
	}
	for inodes < uint64(n)*8+1024 {
		inodes *= 2
	}
	return core.Options{
		AuthorityBits: 1024, // simulation-grade escrow keys: keygen speed
		PDDiskBlocks:  blocks,
		NPDDiskBlocks: 4096,
		NInodes:       inodes,
		JournalBlocks: 256,
	}
}

// seedSystem boots rgpdOS with the Listing 1 type and n subjects acquired
// through the web form. grantProb is the fraction of subjects consenting to
// purpose3.
func seedSystem(n int, seed uint64, grantProb float64) (*core.System, []string, error) {
	s, err := core.Boot(bootOpts(n))
	if err != nil {
		return nil, nil, err
	}
	if err := s.DeclareTypesDSL(listing1DSL, aliasOpts()); err != nil {
		return nil, nil, err
	}
	form := collect.NewWebFormSource("user_form.html")
	s.RegisterSource("user", form)
	rng := xrand.New(seed)
	subjects := workload.SubjectIDs(n)
	for _, subject := range subjects {
		form.Submit(subject, workload.UserRecord(rng, subject))
	}
	if _, err := s.Acquire("user", "web_form", subjects); err != nil {
		return nil, nil, err
	}
	// Consent density: withdraw purpose3 from the non-consenting tail.
	if grantProb < 1 {
		for _, subject := range subjects {
			if rng.Bool(grantProb) {
				continue
			}
			if err := s.Rights().WithdrawConsent(subject, "purpose3"); err != nil {
				return nil, nil, err
			}
		}
	}
	return s, subjects, nil
}

// computeAgeDecl is Listing 2's purpose.
func computeAgeDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        "purpose3",
		Description: "Compute the age of the input user",
		Basis:       purpose.BasisConsent,
		Reads:       []string{"user.year_of_birthdate"},
	}
}

// computeAgeImpl is Listing 2's implementation.
func computeAgeImpl() *ded.Func {
	return &ded.Func{
		Name:          "compute_age",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			if !c.Has("year_of_birthdate") {
				return ded.Output{NonPD: int64(-1)}, nil
			}
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			now, err := c.Now()
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: int64(now.Year()) - yob.I}, nil
		},
	}
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

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

func perOp(total time.Duration, n int) string {
	if n == 0 {
		return "-"
	}
	return us(total / time.Duration(n))
}

// sortedKeys returns map keys in order for deterministic tables.
func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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

// grantAll is a convenience consent map for baseline rows.
func grantAll(purposes ...string) map[string]bool {
	out := make(map[string]bool, len(purposes))
	for _, p := range purposes {
		out[p] = true
	}
	return out
}
