// Adtech: consent-driven analytics at population scale.
//
// An advertising operator holds 200 user profiles. Two purposes run over
// them: ad_targeting (needs full profiles; many users refuse) and
// audience_stats (an anonymized view; most users accept). The example shows
// the membrane filter partitioning the population per purpose, a live
// consent withdrawal shrinking the next run, and the purpose-bounded view
// blocking an implementation that probes beyond its declaration.
//
//	go run ./examples/adtech
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/typedsl"
	"repro/internal/workload"
	"repro/internal/xrand"
)

const profileDSL = `
type profile {
  fields {
    name: string,
    email: string sensitive,
    year_of_birthdate: int
  };
  view v_cohort { year_of_birthdate };
  consent {
    audience_stats: v_cohort
  };
  collection { web_form: signup.html };
  origin: subject;
  age: 2Y;
  sensitivity: medium;
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 200
	fmt.Println("== adtech: consent decides who gets processed ==")
	sys, err := core.Boot(core.Options{AuthorityBits: 1024, PDDiskBlocks: 1 << 15, NInodes: 1 << 14})
	if err != nil {
		return err
	}
	if err := sys.DeclareTypesDSL(profileDSL, typedsl.CompileOptions{}); err != nil {
		return err
	}
	form := collect.NewWebFormSource("signup.html")
	sys.RegisterSource("profile", form)
	rng := xrand.New(2024)
	subjects := workload.SubjectIDs(n)
	for _, s := range subjects {
		u := workload.UserRecord(rng, s)
		form.Submit(s, dbfs.Record{
			"name":              u["name"],
			"email":             dbfs.S(s + "@example.com"),
			"year_of_birthdate": u["year_of_birthdate"],
		})
	}
	if _, err := sys.Acquire("profile", "web_form", subjects); err != nil {
		return err
	}
	// 40% of users additionally opt in to full-profile ad targeting.
	optedIn := 0
	for _, s := range subjects {
		if rng.Bool(0.4) {
			if err := sys.Rights().SetConsent(s, "ad_targeting", membrane.Grant{Kind: membrane.GrantAll}); err != nil {
				return err
			}
			optedIn++
		}
	}
	fmt.Printf("  population: %d profiles; %d opted in to ad_targeting; all default to audience_stats via v_cohort\n",
		n, optedIn)

	register := func(name, desc string, reads []string, fn func(*ded.Ctx) (ded.Output, error)) error {
		return sys.PS().Register(
			&purpose.Decl{Name: name, Description: desc, Basis: purpose.BasisConsent, Reads: reads},
			&ded.Func{Name: name + "_impl", Purpose: name, DeclaredReads: reads, Fn: fn},
			false)
	}
	if err := register("ad_targeting", "Personalized advertising",
		[]string{"profile.name", "profile.year_of_birthdate"},
		func(c *ded.Ctx) (ded.Output, error) {
			if _, err := c.Field("name"); err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: 1}, nil
		}); err != nil {
		return err
	}
	if err := register("audience_stats", "Cohort size statistics",
		[]string{"profile.year_of_birthdate"},
		func(c *ded.Ctx) (ded.Output, error) {
			v, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			decade := (v.I / 10) * 10
			return ded.Output{NonPD: decade}, nil
		}); err != nil {
		return err
	}

	invoke := func(p string) (*ded.Result, error) {
		return sys.PS().Invoke(ps.InvokeRequest{Processing: p, TypeName: "profile"})
	}
	resT, err := invoke("ad_targeting")
	if err != nil {
		return err
	}
	resS, err := invoke("audience_stats")
	if err != nil {
		return err
	}
	fmt.Printf("  ad_targeting:   processed %3d, filtered %v\n", resT.Processed, resT.Filtered)
	fmt.Printf("  audience_stats: processed %3d, filtered %v\n", resS.Processed, resS.Filtered)

	// Cohort histogram from the anonymized outputs.
	cohorts := map[int64]int{}
	for _, o := range resS.Outputs {
		cohorts[o.(int64)]++
	}
	fmt.Printf("  decades represented: %d (no names or emails ever crossed ded_return)\n", len(cohorts))

	// Population-scale fan-out: one invocation per subject, dispatched
	// concurrently through the DED executor. Distinct subjects land on
	// distinct DBFS lock shards, so the batch scales with Options.Workers
	// while each run keeps its own views and audit trail.
	reqs := make([]ps.InvokeRequest, len(subjects))
	for i, s := range subjects {
		reqs[i] = ps.InvokeRequest{Processing: "audience_stats", TypeName: "profile", SubjectFilter: s}
	}
	perSubject := 0
	for _, item := range sys.InvokeBatch(reqs) {
		if item.Err != nil {
			return item.Err
		}
		perSubject += item.Res.Processed
	}
	fmt.Printf("  per-subject batch (%d workers): %d invocations, %d profiles processed\n",
		sys.Workers(), len(reqs), perSubject)

	// A user changes their mind: the very next run excludes them.
	victim := subjects[0]
	if err := sys.Rights().WithdrawConsent(victim, "ad_targeting"); err != nil {
		return err
	}
	if err := sys.Rights().WithdrawConsent(victim, "audience_stats"); err != nil {
		return err
	}
	resT2, err := invoke("ad_targeting")
	if err != nil {
		return err
	}
	fmt.Printf("  after %s withdrew: ad_targeting processed %d (was %d)\n",
		victim, resT2.Processed, resT.Processed)

	// A sloppy implementation probes past its declaration: the view holds
	// only declared fields, so the probe fails the run before any output
	// exists, and the audit log records the blocked attempt.
	if err := register("reach_report", "Weekly reach report",
		[]string{"profile.year_of_birthdate"},
		func(c *ded.Ctx) (ded.Output, error) {
			_ = c.Has("email") // undeclared probe
			v, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: v.I}, nil
		}); err != nil {
		return err
	}
	// reach_report needs consent; run it against the stats cohort.
	for _, s := range subjects[:10] {
		if err := sys.Rights().SetConsent(s, "reach_report", membrane.Grant{Kind: membrane.GrantView, View: "v_cohort"}); err != nil {
			return err
		}
	}
	res, err := invoke("reach_report")
	if !errors.Is(err, ded.ErrUndeclaredRead) {
		return fmt.Errorf("reach_report: undeclared probe not blocked (result %v, err %v)", res, err)
	}
	fmt.Printf("  BLOCKED: reach_report probed an undeclared field; no output returned\n    %v\n", err)
	return nil
}
