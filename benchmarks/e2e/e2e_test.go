package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeOpts is a 50-subject, 5-simulated-second run of a workload through
// the full driver.
func smokeOpts(t *testing.T, name string) runOpts {
	t.Helper()
	def, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return runOpts{def: def, seed: 7, simDur: 5 * time.Second, subjects: 50, repeats: 1, outDir: t.TempDir(), probeDivide: 100}
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  *float64
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesDriver holds BENCHMARK.json and the driver's own tables
// to each other: same workloads with their reasons, same metrics with units,
// directions and bounds, run_seconds the driver's default.
func TestContractMatchesDriver(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, driver default %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, driver has %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, driver has %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(w.name) || !unitRE.MatchString(w.unit) {
				t.Errorf("%s %s (%s): name or unit outside the contract's alphabet", kind, w.name, w.unit)
			}
			if seen[w.name] {
				t.Errorf("%s %s listed twice", kind, w.name)
			}
			seen[w.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the driver, must be in (0, 0.25]", kind, w.name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, w.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// TestSmoke drives the workloads through the full driver at toy size — all
// four untraced, one serial and the concurrent one traced as well — and checks
// that every metric of BENCHMARK.json comes out under its name with its unit,
// that timings carry sample counts, and that the runner's invariants held
// (runOne returns an error otherwise).
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			o := smokeOpts(t, def.name)
			var out bytes.Buffer
			if err := runOne(&out, o, false); err != nil {
				t.Fatalf("untraced: %v", err)
			}
			checkResult(t, endToEnd, out.String())
			if def.name != "clinic-mixed" && def.name != "ingest-parallel" {
				return
			}
			out.Reset()
			if err := runOne(&out, o, true); err != nil {
				t.Fatalf("traced: %v", err)
			}
			res := checkResult(t, perLayer, out.String())
			if v := res.Metrics["lsm.denials"].Value; v != 0 {
				t.Errorf("lsm.denials = %v, want 0", v)
			}
			for _, want := range []string{"trace.unattributed_frac", "trace.overhead_frac", "per-class attribution"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("traced report does not mention %s", want)
				}
			}
			spans, err := os.ReadFile(filepath.Join(o.outDir, def.name+".trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"name":"op.query"`, `"name":"ded.load_membrane"`, `"name":"ladder.rights.Access"`, `"name":"probe.wal.commit_ns"`} {
				if !bytes.Contains(spans, []byte(want)) {
					t.Errorf("trace file has no span %s", want)
				}
			}
		})
	}
}

// checkResult parses a run's output: the report must print sample counts and
// the last line must be the result object carrying exactly the declared
// metrics with their units.
func checkResult(t *testing.T, defs []metricDef, out string) result {
	t.Helper()
	if !strings.Contains(out, " n=") {
		t.Error("report prints no sample counts")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	for _, def := range defs {
		m, ok := res.Metrics[def.name]
		if !ok {
			t.Errorf("metric %s not emitted", def.name)
		} else if m.Unit != def.unit {
			t.Errorf("metric %s: unit %q, want %q", def.name, m.Unit, def.unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	return res
}

// TestFailedOpFailsRun fakes one machine error at the Target boundary: the
// runner classifies the op Failed and the run must yield an error (the
// command then exits non-zero and prints no numbers).
func TestFailedOpFailsRun(t *testing.T) {
	o := smokeOpts(t, "clinic-mixed")
	o.simDur = 2 * time.Second
	o.failQuery = 3
	var out bytes.Buffer
	if err := runOne(&out, o, false); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("run with an injected fault returned %v, want a failed-op error", err)
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a failed run printed a result:\n%s", out.String())
	}
}

// TestCompare checks the verdicts of -compare on hand-made result sets.
func TestCompare(t *testing.T) {
	mk := func(scale float64, noisy bool) *resultSet {
		set := &resultSet{Workloads: map[string]workloadResults{}}
		for _, w := range workloads {
			wr := workloadResults{EndToEnd: map[string]series{}}
			for _, md := range endToEnd {
				var s series
				s.Unit = md.unit
				for i := 0; i < 10; i++ {
					v := 100.0
					if md.better == "lower" {
						v *= scale
					} else {
						v /= scale
					}
					if noisy {
						v *= 0.6 + float64(i%5)*0.2
					}
					s.add(v)
				}
				wr.EndToEnd[md.name] = s
			}
			set.Workloads[w.name] = wr
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		raw, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1, false))
	var out bytes.Buffer
	if err := runCompare(&out, []string{base, write("same.json", mk(1.01, false))}); err != nil {
		t.Errorf("1%% worse must pass: %v", err)
	}
	if err := runCompare(&out, []string{base, write("worse.json", mk(1.5, false))}); err != errOutOfBound {
		t.Errorf("50%% worse returned %v, want errOutOfBound", err)
	}
	out.Reset()
	if err := runCompare(&out, []string{base, write("noisy.json", mk(1, true))}); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("equal medians with a spread above the bound must read unresolved (err %v):\n%s", err, out.String())
	}
	if s := (series{Values: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Median: 5.5}); s.spread() < 0.99 || s.spread() > 1.01 {
		// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
		t.Errorf("spread of 1..10 = %v, want 1.0", s.spread())
	}
}
