// Rights portal: every GDPR data-subject right end to end.
//
// One subject exercises, in order: access (Art. 15), rectification
// (Art. 16), restriction (Art. 18), portability (Art. 20), consent
// withdrawal (Art. 7(3)) and erasure (Art. 17) — then the authority plays
// the legal-investigation card and recovers the escrowed data that the
// operator can no longer read, and the deadline-aware background sweeper
// enforces storage limitation (Art. 5(1)(e)) when the retention period
// runs out.
//
//	go run ./examples/rightsportal
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dbfs"
	"repro/internal/rights"
	"repro/internal/typedsl"
)

const accountDSL = `
type account {
  fields {
    name: string,
    iban: string sensitive,
    city: string
  };
  view v_city { city };
  consent {
    fraud_check: all,
    marketing: v_city
  };
  collection { web_form: account_form.html };
  origin: subject;
  age: 5Y;
  sensitivity: high;
}
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== subject rights portal ==")
	sys, err := core.Boot(core.Options{AuthorityBits: 1024, SweepInterval: time.Hour})
	if err != nil {
		return err
	}
	if err := sys.DeclareTypesDSL(accountDSL, typedsl.CompileOptions{}); err != nil {
		return err
	}
	form := collect.NewWebFormSource("account_form.html")
	sys.RegisterSource("account", form)
	form.Submit("nora", dbfs.Record{
		"name": dbfs.S("Nora Weber"),
		"iban": dbfs.S("DE89 3704 0044 0532 0130 00"),
		"city": dbfs.S("Lyon"),
	})
	if _, err := sys.Acquire("account", "web_form", []string{"nora"}); err != nil {
		return err
	}

	// Art. 15 — access.
	report, err := sys.Rights().Access("nora")
	if err != nil {
		return err
	}
	raw, err := rights.ExportJSON(report)
	if err != nil {
		return err
	}
	fmt.Printf("  [Art.15] access report: %d bytes of structured JSON; keys are meaningful (name, iban, city)\n", len(raw))
	if !strings.Contains(string(raw), `"iban"`) {
		return fmt.Errorf("export lost field keys")
	}

	// Art. 16 — rectification.
	pdid := report.Data["account"][0].PDID
	if err := sys.Rights().Rectify(pdid, dbfs.Record{"city": dbfs.S("Rennes")}); err != nil {
		return err
	}
	fmt.Println("  [Art.16] rectified city Lyon -> Rennes")

	// Art. 18 — restriction: processing stops while a dispute is open.
	if err := sys.Rights().Restrict(pdid, true); err != nil {
		return err
	}
	fmt.Println("  [Art.18] processing restricted (membrane flag; every purpose now filtered)")
	if err := sys.Rights().Restrict(pdid, false); err != nil {
		return err
	}

	// Art. 20 — portability.
	portable, err := sys.Rights().Portability("nora")
	if err != nil {
		return err
	}
	fmt.Printf("  [Art.20] portability bundle: %d bytes, ready for another operator\n", len(portable))

	// Art. 7(3) — consent withdrawal.
	if err := sys.Rights().WithdrawConsent("nora", "marketing"); err != nil {
		return err
	}
	fmt.Println("  [Art.7]  marketing consent withdrawn (propagates to every copy)")

	// Art. 17 — erasure with escrow.
	erased, err := sys.Rights().Erase("nora")
	if err != nil {
		return err
	}
	fmt.Printf("  [Art.17] erased %v; operator reads now fail\n", erased.Erased)
	if hits := sys.ResidueScan([]byte("Nora Weber")); len(hits) != 0 {
		return fmt.Errorf("plaintext residue after erasure: %v", hits)
	}
	fmt.Println("           raw-disk scan: zero plaintext residues")

	// The authorities' path (§4): escrowed key + retained ciphertext.
	m, err := sys.DBFS().GetMembrane(sys.DEDToken(), pdid)
	if err != nil {
		return err
	}
	escrow, err := sys.Vault().Escrow(m.EscrowRef)
	if err != nil {
		return err
	}
	ct, err := sys.DBFS().RawCiphertext(sys.DEDToken(), pdid)
	if err != nil {
		return err
	}
	pt, err := sys.Authority().Recover(escrow, ct)
	if err != nil {
		return err
	}
	fmt.Printf("  [authority] escrow recovery succeeded (%d plaintext bytes available to investigators only)\n", len(pt))

	// Art. 5(1)(e) — storage limitation, enforced by the clock. The
	// background sweeper tracks every record's retention deadline and
	// physically deletes expired PD (tombstones and retained ciphertext
	// included) without anyone asking. The portal runs on the simulated
	// machine clock, so five years pass in one call; the sweeper's grace
	// window is the hour given to Boot.
	sweeper := sys.StartSweeper()
	defer sweeper.Stop()
	clk, ok := sys.SimClock()
	if !ok {
		return fmt.Errorf("sim clock expected")
	}
	clk.Advance(5*365*24*time.Hour + time.Hour) // the account type's age is 5Y
	sweeper.Sync()
	live, erasedLeft, err := sys.DBFS().ListErased(sys.DEDToken(), "nora")
	if err != nil {
		return err
	}
	if len(live)+len(erasedLeft) != 0 {
		return fmt.Errorf("retention deadline passed but records remain: live %v, erased %v", live, erasedLeft)
	}
	st := sweeper.Stats()
	fmt.Printf("  [Art.5]  retention ran out: background sweeper deleted %d record(s) in %d pass(es), nothing left on disk\n",
		st.Deleted, st.Passes)

	// The audit chain ties it all together.
	if err := sys.Audit().Verify(); err != nil {
		return err
	}
	fmt.Printf("  audit log: %d hash-chained entries, chain verified\n", sys.Audit().Len())
	return nil
}
