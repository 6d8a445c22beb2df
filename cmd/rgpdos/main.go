// Command rgpdos boots a simulated rgpdOS machine and runs a demo workload,
// printing its enforcement events and end-of-run statistics (bus traffic
// included). It is the "boot the paper" entry point.
//
//	rgpdos -subjects 100 -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/ded"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/typedsl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

const userDSL = `
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
  collection { web_form: user_form.html };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}
`

func main() {
	subjects := flag.Int("subjects", 50, "subject population")
	seed := flag.Uint64("seed", 42, "workload seed")
	flag.Parse()
	if err := run(*subjects, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(n int, seed uint64) error {
	fmt.Println("rgpdOS — GDPR enforcement by the operating system (simulated boot)")
	sys, err := core.Boot(core.Options{AuthorityBits: 1024, PDDiskBlocks: 1 << 15, NInodes: 1 << 14})
	if err != nil {
		return err
	}

	alias := typedsl.CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}}
	if err := sys.DeclareTypesDSL(userDSL, alias); err != nil {
		return err
	}
	form := collect.NewWebFormSource("user_form.html")
	sys.RegisterSource("user", form)
	rng := xrand.New(seed)
	ids := workload.SubjectIDs(n)
	for _, s := range ids {
		form.Submit(s, workload.UserRecord(rng, s))
	}
	got, err := sys.Acquire("user", "web_form", ids)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d subjects through the declared web form\n", got)

	decl := &purpose.Decl{Name: "purpose3", Description: "Compute the age of the input user",
		Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}}
	impl := &ded.Func{Name: "compute_age", Purpose: "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			now, err := c.Now()
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: int64(now.Year()) - yob.I}, nil
		}}
	if err := sys.PS().Register(decl, impl, false); err != nil {
		return err
	}
	res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		return err
	}
	fmt.Printf("ps_invoke(purpose3): processed=%d filtered=%v\n", res.Processed, res.Filtered)

	// One subject exercises erasure.
	victim := ids[0]
	rep, err := sys.Rights().Erase(victim)
	if err != nil {
		return err
	}
	fmt.Printf("right to be forgotten for %s: erased %v\n", victim, rep.Erased)
	if hits := sys.ResidueScan([]byte("(" + victim + ")")); len(hits) > 0 {
		fmt.Fprintf(os.Stderr, "VIOLATION: residue at blocks %v\n", hits)
		os.Exit(1)
	}
	fmt.Println("raw-disk residue scan: clean")

	st := sys.Stats()
	fmt.Printf("stats: dbfs=%+v\n", st.DBFS)
	fmt.Printf("       bus: %d messages, %d bytes, %v simulated IPC\n",
		st.Bus.Messages, st.Bus.Bytes, st.Bus.SimLatency)
	fmt.Printf("       audit entries: %d, lsm denials: %d\n", st.Audit, st.Denials)
	return nil
}
