// Medical records: the paper's §1 motivating case — "in 2020 the CNIL in
// France penalized two doctors (€9K) for hosting medical images on a server
// which was freely accessible on the Internet".
//
// The example runs the same clinic twice. On a conventional stack (the
// Fig. 2 baseline) the records live as plaintext files: anyone reading the
// disk sees diagnoses, and deletion leaves journal residues. On rgpdOS the
// records are typed, membraned and encrypted; direct access attempts are
// denied by the LSM guard, research only sees the statistics view, and
// expired records are swept.
//
//	go run ./examples/medicalrecords
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/blockdev"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/simclock"
	"repro/internal/typedsl"
)

const patientDSL = `
type patient {
  fields {
    name: string,
    diagnosis: string sensitive,
    age: int
  };
  view v_stats { age };
  consent {
    care: all,
    research: v_stats
  };
  collection { web_form: intake_form.html };
  origin: subject;
  age: 6M;
  sensitivity: high;
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type patient struct {
	id        string
	name      string
	diagnosis string
	age       int64
}

var patients = []patient{
	{"p001", "Amina Kone", "diabetes type 2", 54},
	{"p002", "Luc Moreau", "hypertension", 61},
	{"p003", "Sara Lindqvist", "asthma", 29},
}

func run() error {
	fmt.Println("== the CNIL doctors case, twice ==")

	// --- Conventional server (Fig. 2 baseline) ---
	dev := blockdev.MustMem(8192)
	eng, err := baseline.New(dev, simclock.NewSim(simclock.Epoch))
	if err != nil {
		return err
	}
	if err := eng.CreateTable("patient"); err != nil {
		return err
	}
	ids := make([]string, 0, len(patients))
	for _, p := range patients {
		id, err := eng.Insert("patient", p.id,
			map[string]string{"name": p.name, "diagnosis": p.diagnosis},
			map[string]bool{"care": true}, 0)
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	// "Freely accessible on the Internet": reading the raw disk works.
	exposed := 0
	for _, p := range patients {
		if len(blockdev.FindResidue(dev, []byte(p.diagnosis))) > 0 {
			exposed++
		}
	}
	fmt.Printf("  [baseline] raw-disk scan exposes %d/%d diagnoses in plaintext\n", exposed, len(patients))
	// Deleting does not help: the journal remembers.
	for _, id := range ids {
		if err := eng.Delete(id); err != nil {
			return err
		}
	}
	residues := 0
	for _, p := range patients {
		if len(blockdev.FindResidue(dev, []byte(p.diagnosis))) > 0 {
			residues++
		}
	}
	fmt.Printf("  [baseline] after deleting every record, %d/%d diagnoses still recoverable (journal/free space)\n",
		residues, len(patients))

	// --- The same clinic on rgpdOS ---
	sys, err := core.Boot(core.Options{AuthorityBits: 1024})
	if err != nil {
		return err
	}
	if err := sys.DeclareTypesDSL(patientDSL, typedsl.CompileOptions{}); err != nil {
		return err
	}
	form := collect.NewWebFormSource("intake_form.html")
	sys.RegisterSource("patient", form)
	for _, p := range patients {
		form.Submit(p.id, dbfs.Record{
			"name": dbfs.S(p.name), "diagnosis": dbfs.S(p.diagnosis), "age": dbfs.I(p.age),
		})
	}
	if _, err := sys.Acquire("patient", "web_form", []string{"p001", "p002", "p003"}); err != nil {
		return err
	}
	exposed = 0
	for _, p := range patients {
		if len(sys.ResidueScan([]byte(p.diagnosis))) > 0 {
			exposed++
		}
	}
	fmt.Printf("  [rgpdOS]   raw-disk scan exposes %d/%d diagnoses (all ciphertext)\n", exposed, len(patients))

	// A direct access attempt from outside rgpdOS (no DED token).
	intruder := sys.Guard().Mint("internet-scraper") // no capabilities
	_, err = sys.DBFS().GetRecord(intruder, "patient/p001/1")
	fmt.Printf("  [rgpdOS]   direct DBFS access from outside: %v\n", err != nil)

	// Research sees only the statistics view.
	decl := &purpose.Decl{Name: "research", Description: "Cohort age statistics",
		Basis: purpose.BasisConsent, Reads: []string{"patient.age"}}
	impl := &ded.Func{Name: "avg_age", Purpose: "research",
		DeclaredReads: []string{"patient.age"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			v, err := c.Field("age")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: v.I}, nil
		}}
	if err := sys.PS().Register(decl, impl, false); err != nil {
		return err
	}
	res, err := sys.PS().Invoke(ps.InvokeRequest{Processing: "research", TypeName: "patient"})
	if err != nil {
		return err
	}
	var sum int64
	for _, o := range res.Outputs {
		sum += o.(int64)
	}
	fmt.Printf("  [rgpdOS]   research purpose saw ages only; mean age = %d (diagnoses invisible)\n",
		sum/int64(len(res.Outputs)))

	// Storage limitation: after 6 months the records expire and are swept.
	clk, _ := sys.SimClock()
	clk.Advance(200 * 24 * time.Hour)
	deleted, err := sys.Rights().SweepExpired()
	if err != nil {
		return err
	}
	fmt.Printf("  [rgpdOS]   TTL sweep after 200 days removed %d expired records\n", len(deleted))
	return nil
}
