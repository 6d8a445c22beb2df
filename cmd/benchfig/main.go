// Command benchfig runs the gated scale experiments SC7–SC9 (see DESIGN.md
// "Experiment index") and, with -jsondir, writes the BENCH_<ID>.json files
// that cmd/benchgate compares against BENCH_baseline.json.
//
// Usage:
//
//	benchfig -list
//	benchfig -exp SC9             # one experiment
//	benchfig -all                 # everything
//	benchfig -all -small          # fast configuration
//	benchfig -exp SC9 -subjects 500 -seed 7
//	benchfig -exp SC9 -small -jsondir out
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments")
		expID    = flag.String("exp", "", "experiment id to run")
		all      = flag.Bool("all", false, "run every experiment")
		small    = flag.Bool("small", false, "small/fast configuration")
		subjects = flag.Int("subjects", 0, "override subject population")
		seed     = flag.Uint64("seed", 42, "random seed")
		jsonDir  = flag.String("jsondir", "", "directory for BENCH_<ID>.json result files")
	)
	flag.Parse()

	p := bench.Params{Seed: *seed, Subjects: *subjects, Small: *small, JSONDir: *jsonDir}
	switch {
	case *list:
		fmt.Println("experiments (id — title — paper artifact):")
		for _, e := range bench.Registry() {
			fmt.Printf("  %-5s %-62s %s\n", e.ID, e.Title, e.Paper)
		}
	case *all:
		if err := bench.RunAll(os.Stdout, p); err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
	case *expID != "":
		e, ok := bench.Lookup(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchfig: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		if err := bench.RunOne(os.Stdout, e, p); err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
