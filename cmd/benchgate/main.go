// Command benchgate is the CI bench-regression gate: it compares the
// freshly generated BENCH_<ID>.json result files against the checked-in
// BENCH_baseline.json and fails (exit 1) when a gated summary metric has
// regressed by more than the allowed fraction.
//
// The baseline (schema 2) holds one entry per gated experiment under
// "experiments"; each entry's summary metrics are conservative floors (not
// one machine's maximum). All three gated experiments count device ops and
// simulated time rather than wall-clock time, so their results do not
// depend on the runner. What the gate protects: SC7's cold-tier footprint,
// its untaxed hot path and its shred-safety contract; SC8's multi-node
// routing speedups plus the cross-node erasure-propagation invariants; and
// SC9's per-op-class macro throughput floors and p99 ceilings plus the
// exact regulator invariants (zero residue, zero erased-readable, zero
// consent mismatches).
//
// A baseline entry with no generated result — or a generated result with no
// baseline entry — is a configuration error (exit 2) named after the
// experiment, never a silent skip: a gate that quietly stops comparing is a
// gate that quietly stops gating.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.json -results bench-out [-max-regress 0.20]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bench"
)

// baselineFile is the schema-2 layout of BENCH_baseline.json.
type baselineFile struct {
	Schema      int                        `json:"schema"`
	Comment     string                     `json:"comment,omitempty"`
	Experiments map[string]json.RawMessage `json:"experiments"`
}

// errRegression reports a gated metric below its floor (exit 1); every
// configuration problem — malformed baseline, missing result, missing
// baseline entry, zero floor — is a configError (exit 2).
var errRegression = errors.New("benchgate: gated metric regressed")

type configError struct{ msg string }

func (e *configError) Error() string { return "benchgate: " + e.msg }

func confErrf(format string, args ...any) error {
	return &configError{msg: fmt.Sprintf(format, args...)}
}

// checkFloor compares one summary metric against its baseline floor and
// reports false (after printing the failure) on regression. A baseline
// metric of zero means the field is absent or mistyped in the baseline —
// that would make the floor 0 and the gate a silent no-op, so it is a
// configuration error, not a pass.
func checkFloor(out io.Writer, exp, metric string, base, cur, maxRegress float64) (bool, error) {
	if base <= 0 {
		return false, confErrf("experiment %s: baseline summary metric %q is %.2f — absent or mistyped in the baseline, which would disable the gate",
			exp, metric, base)
	}
	floor := base * (1 - maxRegress)
	fmt.Fprintf(out, "benchgate: %s %-24s baseline=%.2fx current=%.2fx floor=%.2fx\n",
		exp, metric, base, cur, floor)
	if cur < floor {
		fmt.Fprintf(out, "benchgate: FAIL — %s %s regressed more than %.0f%% (%.2fx < %.2fx)\n",
			exp, metric, maxRegress*100, cur, floor)
		return false, nil
	}
	return true, nil
}

// checkCeiling is checkFloor's dual for lower-is-better metrics (cost
// ratios): the current value must stay under baseline * (1 + maxRegress).
// A zero baseline would again disable the gate, so it is a configuration
// error.
func checkCeiling(out io.Writer, exp, metric string, base, cur, maxRegress float64) (bool, error) {
	if base <= 0 {
		return false, confErrf("experiment %s: baseline summary metric %q is %.2f — absent or mistyped in the baseline, which would disable the gate",
			exp, metric, base)
	}
	ceil := base * (1 + maxRegress)
	fmt.Fprintf(out, "benchgate: %s %-24s baseline=%.2f current=%.2f ceiling=%.2f\n",
		exp, metric, base, cur, ceil)
	if cur > ceil {
		fmt.Fprintf(out, "benchgate: FAIL — %s %s grew more than %.0f%% (%.2f > %.2f)\n",
			exp, metric, maxRegress*100, cur, ceil)
		return false, nil
	}
	return true, nil
}

// checkInvariant is for correctness properties that are pass/fail, not
// floors: the current run must hold them regardless of regress margin.
func checkInvariant(out io.Writer, exp, name string, held bool) bool {
	fmt.Fprintf(out, "benchgate: %s %-24s invariant=%v\n", exp, name, held)
	if !held {
		fmt.Fprintf(out, "benchgate: FAIL — %s invariant %s does not hold\n", exp, name)
	}
	return held
}

// gateSC7 compares the cold-tier headline: the archive footprint
// reduction holds its floor, the per-record promotion cost stays under its
// ceiling, re-demotion still dedups, and the rest hold exactly — they are
// correctness invariants, so no regress margin applies: the hot path pays
// exactly the device ops it pays with the tier disabled, and a shredded
// record's archived and snapshotted copies decode to nothing with zero
// plaintext residue.
func gateSC7(out io.Writer, baseRaw json.RawMessage, curPath string, maxRegress float64) (bool, error) {
	var base, cur bench.SC7Report
	if err := decodeReport(baseRaw, "baseline", "SC7", &base); err != nil {
		return false, err
	}
	if err := decodeFile(curPath, "SC7", &cur); err != nil {
		return false, err
	}
	if base.Experiment != "SC7" || len(base.Rows) == 0 || cur.Experiment != "SC7" || len(cur.Rows) == 0 {
		return false, confErrf("experiment SC7: malformed report (baseline or %s)", curPath)
	}
	ok := true
	for _, m := range []struct {
		name      string
		base, cur float64
	}{
		{"footprint_ratio", base.Summary.FootprintRatio, cur.Summary.FootprintRatio},
		{"redemotion_dedup_hits", float64(base.Summary.RedemotionDedupHits), float64(cur.Summary.RedemotionDedupHits)},
	} {
		mok, err := checkFloor(out, "SC7", m.name, m.base, m.cur, maxRegress)
		if err != nil {
			return false, err
		}
		ok = mok && ok
	}
	mok, err := checkCeiling(out, "SC7", "promote_ops_per_record",
		base.Summary.PromoteOpsPerRecord, cur.Summary.PromoteOpsPerRecord, maxRegress)
	if err != nil {
		return false, err
	}
	ok = mok && ok
	ok = checkInvariant(out, "SC7", "hot_path_ops_unchanged",
		cur.Summary.HotPathOpsBaseline > 0 && cur.Summary.HotPathOpsColdOn == cur.Summary.HotPathOpsBaseline) && ok
	ok = checkInvariant(out, "SC7", "archive_undecodable", cur.Summary.ArchiveUndecodable) && ok
	ok = checkInvariant(out, "SC7", "snapshot_undecodable", cur.Summary.SnapshotUndecodable) && ok
	ok = checkInvariant(out, "SC7", "plaintext_residue_zero", cur.Summary.PlaintextResidueHits == 0) && ok
	ok = checkInvariant(out, "SC7", "redemotion_no_new_bytes", cur.Summary.RedemotionNewBytes == 0) && ok
	return ok, nil
}

func decodeReport(raw json.RawMessage, src, exp string, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return confErrf("experiment %s: decode %s entry: %v", exp, src, err)
	}
	return nil
}

func decodeFile(path, exp string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return confErrf("experiment %s: %v", exp, err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return confErrf("experiment %s: decode %s: %v", exp, path, err)
	}
	return nil
}

// gateSC8 compares the multi-node routing headline: the insert and
// subject-access speedups at 2 and 4 nodes hold their floors (the
// baseline values are conservative — 2.0 and 3.125 — so the effective
// floors after the regress margin are 1.6x and 2.5x), and the copy-ledger
// contract holds exactly: after an erase with one copy-holding node
// failing the first fan-out, every ledger-named remote copy is dead within
// one propagation window, the ledger is drained, the deferred sync was
// retried inside the window, and no node holds plaintext residue.
func gateSC8(out io.Writer, baseRaw json.RawMessage, curPath string, maxRegress float64) (bool, error) {
	var base, cur bench.SC8Report
	if err := decodeReport(baseRaw, "baseline", "SC8", &base); err != nil {
		return false, err
	}
	if err := decodeFile(curPath, "SC8", &cur); err != nil {
		return false, err
	}
	if base.Experiment != "SC8" || len(base.Rows) == 0 || cur.Experiment != "SC8" || len(cur.Rows) == 0 {
		return false, confErrf("experiment SC8: malformed report (baseline or %s)", curPath)
	}
	ok := true
	for _, m := range []struct {
		name      string
		base, cur float64
	}{
		{"insert_speedup_2", base.Summary.InsertSpeedup2, cur.Summary.InsertSpeedup2},
		{"insert_speedup_4", base.Summary.InsertSpeedup4, cur.Summary.InsertSpeedup4},
		{"access_speedup_2", base.Summary.AccessSpeedup2, cur.Summary.AccessSpeedup2},
		{"access_speedup_4", base.Summary.AccessSpeedup4, cur.Summary.AccessSpeedup4},
	} {
		mok, err := checkFloor(out, "SC8", m.name, m.base, m.cur, maxRegress)
		if err != nil {
			return false, err
		}
		ok = mok && ok
	}
	ok = checkInvariant(out, "SC8", "erase_propagated", cur.Summary.ErasePropagated) && ok
	ok = checkInvariant(out, "SC8", "ledger_drained", cur.Summary.LedgerDrained) && ok
	ok = checkInvariant(out, "SC8", "retried_within_window", cur.Summary.RetriedWithinWindow) && ok
	ok = checkInvariant(out, "SC8", "remote_residue_zero", cur.Summary.RemoteResidueHits == 0) && ok
	return ok, nil
}

// gateSC9 compares the macro-workload scorecards. For every baseline
// (scenario, op class) row the current run must hold the per-class
// throughput floor and p99 ceiling, and every scenario must hold the exact
// regulator invariants: zero plaintext residue over a non-empty erased
// sample, zero erased-but-readable records, zero consent-inconsistent
// access exports over a non-empty check — correctness, so no regress
// margin applies. SC9 is fully deterministic (simclock pacing, simulated
// device-op latency), so the numeric metrics are expected to match the
// baseline exactly; the margin only absorbs a deliberate retune.
func gateSC9(out io.Writer, baseRaw json.RawMessage, curPath string, maxRegress float64) (bool, error) {
	var base, cur bench.SC9Report
	if err := decodeReport(baseRaw, "baseline", "SC9", &base); err != nil {
		return false, err
	}
	if err := decodeFile(curPath, "SC9", &cur); err != nil {
		return false, err
	}
	if base.Experiment != "SC9" || len(base.Scenarios) == 0 || cur.Experiment != "SC9" || len(cur.Scenarios) == 0 {
		return false, confErrf("experiment SC9: malformed report (baseline or %s)", curPath)
	}
	curScen := make(map[string]int, len(cur.Scenarios))
	for i, cs := range cur.Scenarios {
		curScen[cs.Scenario] = i
	}
	ok := true
	for _, bs := range base.Scenarios {
		ci, found := curScen[bs.Scenario]
		if !found {
			return false, confErrf("experiment SC9: scenario %s in baseline but absent from %s", bs.Scenario, curPath)
		}
		cs := cur.Scenarios[ci]
		curRows := make(map[string]int, len(cs.Classes))
		for i, row := range cs.Classes {
			curRows[row.Class] = i
		}
		for _, brow := range bs.Classes {
			ri, found := curRows[brow.Class]
			if !found {
				return false, confErrf("experiment SC9: scenario %s class %s in baseline but absent from %s",
					bs.Scenario, brow.Class, curPath)
			}
			crow := cs.Classes[ri]
			name := bs.Scenario + "/" + brow.Class
			mok, err := checkFloor(out, "SC9", name+" ops/s", brow.OpsPerSec, crow.OpsPerSec, maxRegress)
			if err != nil {
				return false, err
			}
			ok = mok && ok
			mok, err = checkCeiling(out, "SC9", name+" p99us", float64(brow.P99us), float64(crow.P99us), maxRegress)
			if err != nil {
				return false, err
			}
			ok = mok && ok
		}
		inv := cs.Invariants
		ok = checkInvariant(out, "SC9", bs.Scenario+" residue_zero",
			inv.ResidueHits == 0 && inv.ResidueChecked > 0) && ok
		ok = checkInvariant(out, "SC9", bs.Scenario+" erased_unreadable", inv.ErasedReadable == 0) && ok
		ok = checkInvariant(out, "SC9", bs.Scenario+" consent_consistent",
			inv.ConsentMismatches == 0 && inv.AccessChecked > 0) && ok
		if bs.Invariants.SweptRecords > 0 {
			ok = checkInvariant(out, "SC9", bs.Scenario+" retention_swept", inv.SweptRecords > 0) && ok
		}
	}
	return ok, nil
}

// gates maps experiment id to its comparison; adding a gated experiment
// means adding a row here AND an entry to BENCH_baseline.json.
var gates = map[string]func(io.Writer, json.RawMessage, string, float64) (bool, error){
	"SC7": gateSC7,
	"SC8": gateSC8,
	"SC9": gateSC9,
}

// run executes the whole gate. It returns nil when every gated metric
// holds, errRegression when one regressed (failure text already printed to
// out), or a *configError for any configuration problem.
func run(baselinePath, resultsDir string, maxRegress float64, out io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return confErrf("%v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return confErrf("decode %s: %v", baselinePath, err)
	}
	if base.Schema != 2 || len(base.Experiments) == 0 {
		return confErrf("%s: unsupported baseline schema %d (want 2 with an \"experiments\" map — regenerate it)",
			baselinePath, base.Schema)
	}

	// Enumerate the generated results.
	entries, err := os.ReadDir(resultsDir)
	if err != nil {
		return confErrf("%v", err)
	}
	currents := make(map[string]string)
	for _, e := range entries {
		name := e.Name()
		if id, ok := strings.CutPrefix(name, "BENCH_"); ok && strings.HasSuffix(id, ".json") {
			currents[strings.TrimSuffix(id, ".json")] = filepath.Join(resultsDir, name)
		}
	}

	// Every baseline entry must have a generated result, a registered gate,
	// and vice versa — name the experiment on any mismatch.
	baseIDs := make([]string, 0, len(base.Experiments))
	for id := range base.Experiments {
		baseIDs = append(baseIDs, id)
	}
	sort.Strings(baseIDs)
	for _, id := range baseIDs {
		if _, ok := gates[id]; !ok {
			known := make([]string, 0, len(gates))
			for k := range gates {
				known = append(known, k)
			}
			sort.Strings(known)
			return confErrf("experiment %s: baseline entry has no registered gate (known: %s)", id, strings.Join(known, ", "))
		}
		if _, ok := currents[id]; !ok {
			return confErrf("experiment %s: baseline entry present but %s was not generated — run `go run ./cmd/benchfig -exp %s -small -jsondir %s`",
				id, filepath.Join(resultsDir, "BENCH_"+id+".json"), id, resultsDir)
		}
	}
	curIDs := make([]string, 0, len(currents))
	for id := range currents {
		curIDs = append(curIDs, id)
	}
	sort.Strings(curIDs)
	ok := true
	for _, id := range curIDs {
		if _, inBase := base.Experiments[id]; !inBase {
			return confErrf("experiment %s: %s generated but %s has no entry for it — append the experiment to the baseline",
				id, currents[id], baselinePath)
		}
		idOK, err := gates[id](out, base.Experiments[id], currents[id], maxRegress)
		if err != nil {
			return err
		}
		ok = idOK && ok
	}
	if !ok {
		return errRegression
	}
	fmt.Fprintln(out, "benchgate: OK")
	return nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline file (schema 2)")
		resultsDir   = flag.String("results", "bench-out", "directory holding freshly generated BENCH_<ID>.json files")
		maxRegress   = flag.Float64("max-regress", 0.20, "allowed fractional regression of each gated summary metric")
	)
	flag.Parse()
	switch err := run(*baselinePath, *resultsDir, *maxRegress, os.Stdout); {
	case err == nil:
	case errors.Is(err, errRegression):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}
