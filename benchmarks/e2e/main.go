// Command e2e is the wall-clock end-to-end benchmark of the rgpdOS machine:
// four regulator workloads driven through workload.RunScenario / Soak with a
// timing decorator at the workload.Target boundary. See benchmarks/README.md.
//
//	e2e -workload <name> -seed <n> -seconds <s> -trace <0|1>   one run
//	e2e -all [-seeds <k>] [-json <file>]                        every workload, a result set
//	e2e -compare a.json b.json                                  two result sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: clinic-mixed, audit-sweep, breach-wave or ingest-parallel")
		seed    = flag.Uint64("seed", 42, "trace seed; it only reaches workload.Generate")
		seconds = flag.Float64("seconds", defaultSeconds, "length of an untraced run's timed phases on the reference sandbox; fixes the trace length")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		outDir  = flag.String("out", "benchmarks/out", "directory for trace files and result sets")
		all     = flag.Bool("all", false, "run every workload, each run in a process of its own, and write a result set")
		seeds   = flag.Int("seeds", 1, "with -all: untraced runs per workload, on seeds seed..seed+seeds-1")
		jsonOut = flag.String("json", "", "with -all: result-set file (default <out>/results.json)")
		compare = flag.Bool("compare", false, "compare two result sets: e2e -compare a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, flag.Args())
	case *all:
		if *jsonOut == "" {
			*jsonOut = filepath.Join(*outDir, "results.json")
		}
		err = runAll(os.Stdout, *seed, *seeds, *seconds, *outDir, *jsonOut)
	default:
		var def workloadDef
		if def, err = lookupWorkload(*name); err == nil {
			err = runOne(os.Stdout, runOpts{
				def: def, seed: *seed, subjects: seededSubjects, repeats: repeats, outDir: *outDir,
				simDur:      time.Duration(*seconds / repeats * def.simPerSec * float64(time.Second)),
				probeDivide: 1,
			}, *trace != 0)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 15
	// repeats is how many machines an untraced run boots, seeds and drives,
	// each on a trace of its own derived seed; every metric is the median
	// over them, and setup_s is the median of their set-ups.
	repeats = 3
)

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one benchmark run: the report, then the result object as the
// last line.
func runOne(w io.Writer, o runOpts, trace bool) error {
	run, defs := runUntraced, endToEnd
	if trace {
		run, defs = runTraced, perLayer
	}
	m, attempted, err := run(o, w)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: attempted, Metrics: map[string]outMetric{}}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = outMetric{v.v, v.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// repeatSeed derives the trace seed of one repeat: distinct traces, a pure
// function of -seed.
func repeatSeed(seed uint64, r int) uint64 { return seed + uint64(r)*0x9E3779B97F4A7C15 }

// runUntraced is the end-to-end measurement: o.repeats fresh machines, each
// booted, seeded and driven through its own trace; the report is the median
// over them.
func runUntraced(o runOpts, w io.Writer) (metricSet, int, error) {
	sc, mix, err := scenarioFor(o)
	if err != nil {
		return nil, 0, err
	}
	var sets []metricSet
	attempted := 0
	for r := 0; r < o.repeats; r++ {
		ro := o
		ro.seed = repeatSeed(o.seed, r)
		ops, err := workload.Generate(mix, ro.seed)
		if err != nil {
			return nil, 0, err
		}
		p, err := runPhase(ro, sc, mix, ops, nil)
		if err != nil {
			return nil, 0, err
		}
		attempted += p.issued
		fmt.Fprintf(w, "%s seed %d repeat %d: %d ops (%.0f simulated s) in %.2fs after %.2fs set-up\n",
			o.def.name, o.seed, r, p.issued, o.simDur.Seconds(), p.wall.Seconds(), p.setup.total().Seconds())
		sets = append(sets, endToEndMetrics(p))
		p = nil
		debug.FreeOSMemory() // the next machine starts from the same heap
	}
	m := medianOf(sets)
	printMetrics(w, endToEnd, m)
	return m, attempted, nil
}

// runTraced is the per-layer measurement: the same trace once untraced (the
// base of trace.overhead_frac) and once traced, then the layer ladder and
// the stand-alone probes on the traced machine's end state.
func runTraced(o runOpts, w io.Writer) (metricSet, int, error) {
	sc, mix, err := scenarioFor(o)
	if err != nil {
		return nil, 0, err
	}
	o.seed = repeatSeed(o.seed, 0)
	t0 := time.Now()
	ops, err := workload.Generate(mix, o.seed)
	if err != nil {
		return nil, 0, err
	}
	t := &tracedRun{generate: time.Since(t0), sc: sc, mix: mix}
	if t.ref, err = runPhase(o, sc, mix, ops, nil); err != nil {
		return nil, 0, err
	}
	t.ref.sys, t.ref.tgt = nil, nil
	debug.FreeOSMemory()
	t.tr = &tracer{counts: !o.def.parallel}
	if t.p, err = runPhase(o, sc, mix, ops, t.tr); err != nil {
		return nil, 0, err
	}
	blocks, _, _ := workload.BootSizing(mix, ops)
	if t.ladder, err = runLadder(t.p.sys, sc, mix, o.seed, blocks, t.tr); err != nil {
		return nil, 0, err
	}
	if t.probes, err = runProbes(sc, mix, t.p.sys.Authority().PublicKey(), o.probeDivide, t.tr); err != nil {
		return nil, 0, err
	}
	m := t.layerMetrics()
	fmt.Fprintf(w, "%s seed %d traced: %d ops (%.0f simulated s) in %.2fs, untraced %.2fs\n",
		o.def.name, o.seed, t.p.issued, o.simDur.Seconds(), t.p.wall.Seconds(), t.ref.wall.Seconds())
	printMetrics(w, perLayer, m)
	t.printAttribution(w, m)
	path := filepath.Join(o.outDir, o.def.name+".trace.jsonl")
	if err := t.tr.write(path); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(w, "\n%d spans written to %s\n", len(t.tr.spans), path)
	return m, t.p.issued, nil
}

// medianOf folds the repeats' metric sets into one: median value, with the
// smallest and largest beside it.
func medianOf(sets []metricSet) metricSet {
	out := metricSet{}
	for name, v := range sets[0] {
		xs := make([]float64, len(sets))
		for i, s := range sets {
			xs[i] = s[name].v
		}
		slices.Sort(xs)
		v.v, v.min, v.max = xs[len(xs)/2], xs[0], xs[len(xs)-1]
		out[name] = v
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, m metricSet) {
	for _, def := range defs {
		v := m[def.name]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s", def.name, v.v, v.unit)
		if v.min != v.max {
			fmt.Fprintf(w, " [%.4f .. %.4f]", v.min, v.max)
		}
		if v.n > 0 {
			fmt.Fprintf(w, " n=%d", v.n)
			if v.n < minSamples {
				fmt.Fprintf(w, " (fewer than %d samples)", minSamples)
			}
		}
		fmt.Fprintln(w)
	}
}
