// Quickstart: the paper's Listings 1–3 as a running program.
//
// It boots rgpdOS, declares the Listing 1 "user" type in the DSL, collects
// one subject through the web form, registers Listing 2's compute_age under
// purpose3, invokes it via ps_invoke (Listing 3), and shows that purpose2 —
// denied by the default consent — processes nothing.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/typedsl"
)

// listing1 is the paper's type declaration (sensitivity "hight" and the
// "ano" consent shorthand included).
const listing1 = `
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
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== rgpdOS quickstart ==")
	sys, err := core.Boot(core.Options{AuthorityBits: 1024})
	if err != nil {
		return err
	}

	// Listing 1: declare the PD type (the "age" view field is derived from
	// year_of_birthdate, per Listing 2).
	alias := typedsl.CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}}
	if err := sys.DeclareTypesDSL(listing1, alias); err != nil {
		return err
	}
	fmt.Println("  declared type 'user' from the Listing 1 DSL")

	// Collection: the subject fills the web form; acquisition wraps the
	// record in its membrane before it enters DBFS.
	form := collect.NewWebFormSource("user_form.html")
	sys.RegisterSource("user", form)
	form.Submit("chiraz", dbfs.Record{
		"name":              dbfs.S("Chiraz Benamor"),
		"pwd":               dbfs.S("correct-horse"),
		"year_of_birthdate": dbfs.I(1990),
	})
	if _, err := sys.Acquire("user", "web_form", []string{"chiraz"}); err != nil {
		return err
	}
	fmt.Println("  collected 1 subject via user_form.html (membrane attached at entry)")

	// Listing 2: compute_age, implementing purpose3, which only sees the
	// v_ano view.
	decl := &purpose.Decl{
		Name:        "purpose3",
		Description: "Compute the age of the input user",
		Basis:       purpose.BasisConsent,
		Reads:       []string{"user.year_of_birthdate"},
	}
	impl := &ded.Func{
		Name:          "compute_age",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			if !c.Has("year_of_birthdate") { // "is age allowed to be seen?"
				return ded.Output{}, fmt.Errorf("age not visible")
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
	if err := sys.PS().Register(decl, impl, false); err != nil {
		return err
	}

	// Listing 3: ps_invoke.
	res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		return err
	}
	fmt.Printf("  ps_invoke(compute_age): age = %v (processed %d record)\n", res.Outputs, res.Processed)

	// purpose2 is "none" in the default consent: the membrane filters it.
	decl2 := &purpose.Decl{Name: "purpose2", Description: "Profiling without consent",
		Basis: purpose.BasisConsent, Reads: []string{"user.name"}}
	impl2 := &ded.Func{Name: "profile", Purpose: "purpose2",
		DeclaredReads: []string{"user.name"},
		Fn:            func(c *ded.Ctx) (ded.Output, error) { return ded.Output{NonPD: 1}, nil }}
	if err := sys.PS().Register(decl2, impl2, false); err != nil {
		return err
	}
	res2, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "purpose2", TypeName: "user"})
	if err != nil {
		return err
	}
	fmt.Printf("  ps_invoke(purpose2): processed=%d filtered=%v — the membrane said no\n",
		res2.Processed, res2.Filtered)

	// Nothing Chiraz typed ever reached the disk in plaintext.
	for _, secret := range []string{"Chiraz Benamor", "correct-horse"} {
		if hits := sys.ResidueScan([]byte(secret)); len(hits) != 0 {
			return fmt.Errorf("plaintext %q on disk: %v", secret, hits)
		}
	}
	fmt.Println("  raw-disk scan: no plaintext PD anywhere (encryption below DBFS)")
	st := sys.Stats()
	fmt.Printf("  stats: %d DBFS inserts, %d bus messages, %d audit entries\n",
		st.DBFS.Inserts, st.Bus.Messages, st.Audit)
	return nil
}
