package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// sc7Report builds a minimal valid SC7 report with the given footprint
// ratio; every invariant holds and the hot path costs what it does with the
// tier disabled.
func sc7Report(footprint float64) *bench.SC7Report {
	r := &bench.SC7Report{Experiment: "SC7", Schema: 1}
	r.Rows = []bench.SC7Row{{Phase: "hot", Config: "x", Records: 4}}
	r.Summary.FootprintRatio = footprint
	r.Summary.HotPathOpsBaseline = 10
	r.Summary.HotPathOpsColdOn = 10
	r.Summary.HotPathOpsRatio = 1
	r.Summary.PromoteOpsPerRecord = 30
	r.Summary.RedemotionDedupHits = 24
	r.Summary.ArchiveUndecodable = true
	r.Summary.SnapshotUndecodable = true
	return r
}

// sc8Report builds a minimal valid SC8 report with all four routing
// speedups set to v and every copy-ledger invariant holding.
func sc8Report(v float64) *bench.SC8Report {
	r := &bench.SC8Report{Experiment: "SC8", Schema: 1}
	r.Rows = []bench.SC8Row{{Nodes: 1, InsertSpeedup: 1, AccessSpeedup: 1}}
	r.Summary.InsertSpeedup2 = v
	r.Summary.InsertSpeedup4 = v
	r.Summary.AccessSpeedup2 = v
	r.Summary.AccessSpeedup4 = v
	r.Summary.ErasePropagated = true
	r.Summary.LedgerDrained = true
	r.Summary.RetriedWithinWindow = true
	return r
}

// writeBaseline writes a schema-2 baseline holding the given experiment
// entries.
func writeBaseline(t *testing.T, dir string, experiments map[string]any) string {
	t.Helper()
	raw := map[string]json.RawMessage{}
	for id, v := range experiments {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		raw[id] = b
	}
	blob, err := json.Marshal(map[string]any{"schema": 2, "experiments": raw})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_baseline.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeResult drops one generated BENCH_<id>.json into the results dir.
func writeResult(t *testing.T, dir, id string, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+id+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunEdgePaths is the table over the schema-2 configuration edge
// paths: every path must fail as a *named* configuration error (exit 2 in
// main), never a silent skip — plus the regression boundary, where
// exactly-at-threshold passes and epsilon-below fails with exit 1.
func TestRunEdgePaths(t *testing.T) {
	const maxRegress = 0.25 // floor = base * 0.75, exact in binary
	cases := []struct {
		name string
		// baseline entries and generated results.
		baseline map[string]any
		results  map[string]any
		// wantConfigErr: run must return a *configError whose text
		// contains every fragment (the named exit-2 error).
		wantConfigErr []string
		// wantRegression: run must return errRegression and print every
		// fragment.
		wantRegression []string
		// wantOK: run must pass.
		wantOK bool
	}{
		{
			name:     "missing experiment in results",
			baseline: map[string]any{"SC7": sc7Report(5), "SC8": sc8Report(2)},
			results:  map[string]any{"SC7": sc7Report(5)},
			wantConfigErr: []string{
				"experiment SC8",
				"baseline entry present but",
				"was not generated",
			},
		},
		{
			name:     "missing experiment in baseline",
			baseline: map[string]any{"SC7": sc7Report(5)},
			results:  map[string]any{"SC7": sc7Report(5), "SC8": sc8Report(2)},
			wantConfigErr: []string{
				"experiment SC8",
				"has no entry for it",
			},
		},
		{
			name:     "baseline entry without a registered gate",
			baseline: map[string]any{"SC99": sc7Report(5)},
			results:  map[string]any{"SC99": sc7Report(5)},
			wantConfigErr: []string{
				"experiment SC99",
				"no registered gate",
			},
		},
		{
			name:     "zero floor disables the gate",
			baseline: map[string]any{"SC7": sc7Report(0)},
			results:  map[string]any{"SC7": sc7Report(5)},
			wantConfigErr: []string{
				"experiment SC7",
				`baseline summary metric "footprint_ratio" is 0.00`,
				"would disable the gate",
			},
		},
		{
			name:     "zero floor in a multi-metric gate",
			baseline: map[string]any{"SC8": sc8Report(0)},
			results:  map[string]any{"SC8": sc8Report(2)},
			wantConfigErr: []string{
				"experiment SC8",
				`baseline summary metric "insert_speedup_2" is 0.00`,
			},
		},
		{
			name:     "regression exactly at the threshold passes",
			baseline: map[string]any{"SC8": sc8Report(1.0)},
			results:  map[string]any{"SC8": sc8Report(0.75)}, // floor is exactly 0.75
			wantOK:   true,
		},
		{
			name:     "regression just past the threshold fails",
			baseline: map[string]any{"SC8": sc8Report(1.0)},
			results:  map[string]any{"SC8": sc8Report(0.7499)},
			wantRegression: []string{
				"FAIL",
				"SC8 insert_speedup_2 regressed more than 25%",
			},
		},
		{
			// The cold tier must not tax untouched records at all: one
			// extra device op in ten fails even though it is inside the
			// regress margin.
			name:     "hot path paying any extra device op fails",
			baseline: map[string]any{"SC7": sc7Report(5)},
			results: map[string]any{"SC7": func() *bench.SC7Report {
				r := sc7Report(5)
				r.Summary.HotPathOpsColdOn = 11
				r.Summary.HotPathOpsRatio = 1.1
				return r
			}()},
			wantRegression: []string{
				"FAIL",
				"SC7 invariant hot_path_ops_unchanged does not hold",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			resultsDir := filepath.Join(dir, "bench-out")
			if err := os.MkdirAll(resultsDir, 0o755); err != nil {
				t.Fatal(err)
			}
			baselinePath := writeBaseline(t, dir, tc.baseline)
			for id, v := range tc.results {
				writeResult(t, resultsDir, id, v)
			}
			var out bytes.Buffer
			err := run(baselinePath, resultsDir, maxRegress, &out)
			switch {
			case tc.wantOK:
				if err != nil {
					t.Fatalf("run = %v, want pass\noutput:\n%s", err, out.String())
				}
				if !strings.Contains(out.String(), "benchgate: OK") {
					t.Fatalf("pass did not print OK:\n%s", out.String())
				}
			case tc.wantConfigErr != nil:
				var cfg *configError
				if !errors.As(err, &cfg) {
					t.Fatalf("run = %v, want a *configError (exit 2)", err)
				}
				for _, frag := range tc.wantConfigErr {
					if !strings.Contains(err.Error(), frag) {
						t.Fatalf("config error %q does not name %q", err.Error(), frag)
					}
				}
			default:
				if !errors.Is(err, errRegression) {
					t.Fatalf("run = %v, want errRegression (exit 1)", err)
				}
				for _, frag := range tc.wantRegression {
					if !strings.Contains(out.String(), frag) {
						t.Fatalf("regression output missing %q:\n%s", frag, out.String())
					}
				}
			}
		})
	}
}

// TestRunBaselineFileProblems covers the pre-gate configuration errors:
// unreadable baseline, wrong schema, unreadable results directory.
func TestRunBaselineFileProblems(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer

	var cfg *configError
	if err := run(filepath.Join(dir, "nope.json"), dir, 0.2, &out); !errors.As(err, &cfg) {
		t.Fatalf("missing baseline: %v, want *configError", err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(bad, dir, 0.2, &out)
	if !errors.As(err, &cfg) || !strings.Contains(err.Error(), "unsupported baseline schema 1") {
		t.Fatalf("schema-1 baseline: %v, want named schema config error", err)
	}

	good := writeBaseline(t, dir, map[string]any{"SC7": sc7Report(5)})
	if err := run(good, filepath.Join(dir, "missing-dir"), 0.2, &out); !errors.As(err, &cfg) {
		t.Fatalf("missing results dir: %v, want *configError", err)
	}
}
