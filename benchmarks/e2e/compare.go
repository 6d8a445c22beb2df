package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

// resultSet is what -all writes and -compare reads: every metric's value on
// every run of every workload, with enough about the machine to tell a slow
// box from a broken run.
type resultSet struct {
	Go        string                     `json:"go"`
	NProc     int                        `json:"nproc"`
	Seed      uint64                     `json:"seed"`
	Seeds     int                        `json:"seeds"`
	Seconds   float64                    `json:"seconds"`
	Repeats   int                        `json:"repeats_per_run"`
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	// EndToEnd holds one value per untraced run (seed, seed+1, ...).
	EndToEnd map[string]series `json:"end_to_end"`
	// PerLayer holds the single traced run on the first seed.
	PerLayer map[string]series `json:"per_layer"`
	// Attempted sums the trace ops of every run.
	Attempted int `json:"attempted"`
}

type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	sorted := slices.Sorted(slices.Values(s.Values))
	s.Median, s.Min, s.Max = median(sorted), sorted[0], sorted[len(sorted)-1]
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share of
// the median, the quartiles as Python's statistics.quantiles(values, n=4)
// gives them; with fewer than two values there is no spread to speak of.
func (s series) spread() float64 {
	n := len(s.Values)
	if n < 2 || s.Median == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(s.Values))
	quartile := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(s.Median)
}

// runAll measures every workload: seeds untraced runs and one traced run,
// each in a process of its own so no heap bleeds from one into the next.
func runAll(w io.Writer, seed uint64, seeds int, seconds float64, outDir, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{
		Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: seed, Seeds: seeds,
		Seconds: seconds, Repeats: repeats, Workloads: map[string]workloadResults{},
	}
	child := func(name string, seed uint64, trace int) (*result, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
		}
		var last []byte
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if trace == 1 {
				fmt.Fprintln(w, sc.Text()) // the attribution tables
			}
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
		}
		return &res, nil
	}
	fold := func(into map[string]series, res *result) {
		for name, m := range res.Metrics {
			s := into[name]
			s.Unit = m.Unit
			s.add(m.Value)
			into[name] = s
		}
	}
	for _, def := range workloads {
		wr := workloadResults{EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		for i := 0; i < seeds; i++ {
			res, err := child(def.name, seed+uint64(i), 0)
			if err != nil {
				return err
			}
			fold(wr.EndToEnd, res)
			wr.Attempted += res.Attempted
			fmt.Fprintf(w, "%s seed %d: %d ops, ops_per_s %.1f\n", def.name, seed+uint64(i), res.Attempted, res.Metrics["ops_per_s"].Value)
		}
		res, err := child(def.name, seed, 1)
		if err != nil {
			return err
		}
		fold(wr.PerLayer, res)
		set.Workloads[def.name] = wr
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(jsonOut), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "result set written to %s\n", jsonOut)
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// errOutOfBound is -compare's verdict when some metric got worse by more
// than its bound.
var errOutOfBound = fmt.Errorf("at least one end-to-end metric is worse by more than its bound")

// runCompare prints every end-to-end metric of every workload in two result
// sets: both medians, how much worse b is than a (positive = worse, in the
// metric's own direction), the bound, and a verdict. A pair whose spread on
// either side exceeds the bound cannot be told apart and reads "unresolved";
// a pair worse by more than the bound reads "WORSE" and fails the command.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result-set files")
	}
	a, err := readResultSet(args[0])
	if err != nil {
		return err
	}
	b, err := readResultSet(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%s, %d cpus, %d seeds from %d)\nb = %s (%s, %d cpus, %d seeds from %d)\n",
		args[0], a.Go, a.NProc, a.Seeds, a.Seed, args[1], b.Go, b.NProc, b.Seeds, b.Seed)
	fmt.Fprintf(w, "%-16s %-22s %-6s %14s %14s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "unit", "a median", "b median", "b worse", "bound", "a spread", "b spread", "verdict")
	worse := false
	for _, def := range workloads {
		for _, md := range endToEnd {
			sa, oka := a.Workloads[def.name].EndToEnd[md.name]
			sb, okb := b.Workloads[def.name].EndToEnd[md.name]
			if !oka || !okb {
				return fmt.Errorf("%s %s is missing from a result set", def.name, md.name)
			}
			// Relative worsening over a's median, the base of every bound.
			delta := (sb.Median - sa.Median) / sa.Median
			if md.better == "higher" {
				delta = -delta
			}
			verdict := "ok"
			switch {
			case delta > md.bound:
				verdict = "WORSE"
				worse = true
			case sa.spread() > md.bound || sb.spread() > md.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-22s %-6s %14.4f %14.4f %+8.2f%% %6.0f%% %8.2f%% %8.2f%%  %s\n",
				def.name, md.name, md.unit, sa.Median, sb.Median, 100*delta, 100*md.bound,
				100*sa.spread(), 100*sb.spread(), verdict)
		}
	}
	if worse {
		return errOutOfBound
	}
	return nil
}
