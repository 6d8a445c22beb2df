package core

// Cross-module integration tests: full scenarios spanning the DSL, the
// Processing Store, the DED, DBFS, the rights engine and the audit log,
// exercised exactly as a data operator would drive a production system.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/collect"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/xrand"
)

const agePDDSL = `
type age_pd {
  fields { age: int };
  consent { purpose3: all };
  origin: derived;
  age: 1Y;
  sensitivity: low;
}
`

func TestGeneratedPDFlowThroughPS(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	if err := s.DeclareTypesDSL(agePDDSL, aliasOpts()); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitForm("user", "alice", dbfs.Record{
		"name": dbfs.S("Alice"), "pwd": dbfs.S("x"), "year_of_birthdate": dbfs.I(1990),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("user", "web_form", []string{"alice"}); err != nil {
		t.Fatal(err)
	}
	decl := &purpose.Decl{Name: "purpose3", Description: "Compute the age of the input user",
		Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}, Produces: "age_pd"}
	impl := &ded.Func{Name: "compute_age_pd", Purpose: "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{Generated: &ded.GeneratedPD{
				TypeName:  "age_pd",
				SubjectID: c.SubjectID(),
				Fields:    dbfs.Record{"age": dbfs.I(2023 - yob.I)},
			}}, nil
		}}
	if err := s.PS().Register(decl, impl, false); err != nil {
		t.Fatal(err)
	}
	res, err := s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	// The caller got a reference, never the PD (Listing 3 vs §2 rule).
	if len(res.PDRefs) != 1 || len(res.Outputs) != 0 {
		t.Fatalf("res = %+v", res)
	}
	// The generated PD shows up in the subject's access report, marked
	// derived, and is erased together with the source (same family).
	report, err := s.Rights().Access("alice")
	if err != nil {
		t.Fatal(err)
	}
	ages := report.Data["age_pd"]
	if len(ages) != 1 || ages[0].Origin != "derived" {
		t.Fatalf("derived PD in report = %+v", ages)
	}
	if ages[0].Fields["age"] != int64(33) {
		t.Fatalf("age = %v", ages[0].Fields)
	}
	erased, err := s.Rights().Erase("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(erased.Erased) != 2 {
		t.Fatalf("erasure must cover source + derived: %v", erased.Erased)
	}
}

func TestConsentWithdrawalAffectsNextInvoke(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s, "purpose3")
	rng := xrand.New(9)
	subjects := testSubjectIDs(10)
	for _, subject := range subjects {
		if err := s.SubmitForm("user", subject, testUserRecord(rng, subject)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Acquire("user", "web_form", subjects); err != nil {
		t.Fatal(err)
	}
	res, err := s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 10 {
		t.Fatalf("initial Processed = %d", res.Processed)
	}
	for _, subject := range subjects[:4] {
		if err := s.Rights().WithdrawConsent(subject, "purpose3"); err != nil {
			t.Fatal(err)
		}
	}
	res, err = s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 6 || res.Filtered["consent-denied"] != 4 {
		t.Fatalf("post-withdrawal res = %+v", res)
	}
	// Re-granting through the rights engine restores processing.
	if err := s.Rights().SetConsent(subjects[0], "purpose3",
		membrane.Grant{Kind: membrane.GrantView, View: "v_ano"}); err != nil {
		t.Fatal(err)
	}
	res, err = s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 7 {
		t.Fatalf("post-regrant Processed = %d", res.Processed)
	}
}

func TestAuditChainAcrossFullScenario(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s, "purpose3")
	if err := s.SubmitForm("user", "bob", dbfs.Record{
		"name": dbfs.S("Bob"), "pwd": dbfs.S("x"), "year_of_birthdate": dbfs.I(1970),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("user", "web_form", []string{"bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PS().Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rights().Rectify("user/bob/1", dbfs.Record{"name": dbfs.S("Robert")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rights().Erase("bob"); err != nil {
		t.Fatal(err)
	}
	// The chain covers collection, processing, consent/erasure events.
	if err := s.Audit().Verify(); err != nil {
		t.Fatalf("audit verify: %v", err)
	}
	kinds := s.Audit().CountByKind()
	for _, k := range []audit.Kind{audit.KindCollection, audit.KindProcessing, audit.KindErasure} {
		if kinds[k] == 0 {
			t.Fatalf("missing audit kind %v: %v", k, kinds)
		}
	}
	// And tampering is detected.
	if !s.Audit().Tamper(1, "history rewritten") {
		t.Fatal("tamper refused")
	}
	if err := s.Audit().Verify(); !errors.Is(err, audit.ErrChainBroken) {
		t.Fatalf("tamper not detected: %v", err)
	}
}

func TestTTLSweepThroughSystemClock(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	if err := s.SubmitForm("user", "dave", dbfs.Record{
		"name": dbfs.S("Dave"), "pwd": dbfs.S("x"), "year_of_birthdate": dbfs.I(1999),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("user", "web_form", []string{"dave"}); err != nil {
		t.Fatal(err)
	}
	clk, ok := s.SimClock()
	if !ok {
		t.Fatal("no sim clock")
	}
	clk.Advance(400 * 24 * time.Hour) // past the 1Y TTL
	deleted, err := s.Rights().SweepExpired()
	if err != nil || len(deleted) != 1 {
		t.Fatalf("sweep = %v, %v", deleted, err)
	}
	// Fully gone, not just tombstoned: the retention basis elapsed.
	if _, err := s.DBFS().GetRecord(s.DEDToken(), deleted[0]); !errors.Is(err, dbfs.ErrNoRecord) {
		t.Fatalf("expired record readable: %v", err)
	}
}

func TestThirdPartyCollectionProvenance(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	s.RegisterSource("user", collect.NewThirdPartySource("fetch_data.py",
		func(subject string) (dbfs.Record, error) {
			return dbfs.Record{
				"name": dbfs.S("Partner record for " + subject),
				"pwd":  dbfs.S("imported"), "year_of_birthdate": dbfs.I(1980),
			}, nil
		}))
	if n, err := s.Acquire("user", "third_party", []string{"erin"}); err != nil || n != 1 {
		t.Fatalf("Acquire = %d, %v", n, err)
	}
	m, err := s.DBFS().GetMembrane(s.DEDToken(), "user/erin/1")
	if err != nil {
		t.Fatal(err)
	}
	// Traceability (§2): the membrane records where the PD came from.
	if m.Origin != membrane.OriginThirdParty {
		t.Fatalf("origin = %v", m.Origin)
	}
}
