package ded

import (
	"errors"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/purpose"
	"repro/internal/simclock"
)

// env is a full DED test rig over a real DBFS.
type env struct {
	dev   *blockdev.Mem
	store *dbfs.Store
	guard *lsm.Guard
	vault *cryptoshred.Vault
	log   *audit.Log
	clock *simclock.Sim
	ded   *DED
	tok   *lsm.Token
}

func newEnv(t *testing.T) *env {
	t.Helper()
	dev := blockdev.MustMem(4096)
	clock := simclock.NewSim(simclock.Epoch)
	fs, err := inode.Format(dev, inode.Options{NInodes: 2048, JournalBlocks: 128, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		t.Fatal(err)
	}
	guard := lsm.NewGuard()
	vault := cryptoshred.NewVault(auth.PublicKey())
	store, err := dbfs.Create([]*inode.FS{fs}, guard, vault, clock, dbfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tok := guard.Mint("ded", lsm.CapDBFS)
	log := audit.NewLog(clock)
	d := New(store, tok, log, clock)
	return &env{dev: dev, store: store, guard: guard, vault: vault, log: log, clock: clock, ded: d, tok: tok}
}

// userSchema mirrors the paper's Listing 1 (with the age alias resolved).
func userSchema() *dbfs.Schema {
	return &dbfs.Schema{
		Name: "user",
		Fields: []dbfs.Field{
			{Name: "name", Type: dbfs.TypeString},
			{Name: "pwd", Type: dbfs.TypeString, Sensitive: true},
			{Name: "year_of_birthdate", Type: dbfs.TypeInt},
		},
		Views: []dbfs.View{
			{Name: "v_name", Fields: []string{"name"}},
			{Name: "v_ano", Fields: []string{"year_of_birthdate"}},
		},
		DefaultConsent: map[string]membrane.Grant{
			"purpose1": {Kind: membrane.GrantAll},
			"purpose2": {Kind: membrane.GrantNone},
			"purpose3": {Kind: membrane.GrantView, View: "v_ano"},
		},
		DefaultTTL: 365 * 24 * time.Hour,
		Origin:     membrane.OriginSubject,
	}
}

func (e *env) seedUsers(t *testing.T) (alice, bob string) {
	t.Helper()
	if err := e.store.CreateType(e.tok, userSchema()); err != nil {
		t.Fatal(err)
	}
	alice, err := e.store.Insert(e.tok, "user", "alice", dbfs.Record{
		"name": dbfs.S("Alice"), "pwd": dbfs.S("pw-a"), "year_of_birthdate": dbfs.I(1990),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bob, err = e.store.Insert(e.tok, "user", "bob", dbfs.Record{
		"name": dbfs.S("Bob"), "pwd": dbfs.S("pw-b"), "year_of_birthdate": dbfs.I(1975),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bob withdraws purpose3: his membrane must block compute_age.
	if _, err := e.store.MutateMembrane(e.tok, bob, func(m *membrane.Membrane) error {
		m.WithdrawConsent("purpose3")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

// purpose3 is Listing 2's purpose.
func purpose3() *purpose.Decl {
	return &purpose.Decl{
		Name:        "purpose3",
		Description: "Compute the age of the input user",
		Basis:       purpose.BasisConsent,
		Reads:       []string{"user.year_of_birthdate"},
		Produces:    "age_pd",
	}
}

// computeAge is Listing 2 translated to the reproduction's function shape,
// including the "is age allowed to be seen?" guard.
func computeAge() *Func {
	return &Func{
		Name:          "compute_age",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *Ctx) (Output, error) {
			if !c.Has("year_of_birthdate") {
				return Output{}, errors.New("age not visible")
			}
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return Output{}, err
			}
			now, err := c.Now()
			if err != nil {
				return Output{}, err
			}
			age := int64(now.Year()) - yob.I
			return Output{NonPD: age}, nil
		},
	}
}

func TestComputeAgeOverType(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	res, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), TypeName: "user"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Alice passes (consent view v_ano), Bob is filtered (withdrawn).
	if res.Processed != 1 {
		t.Fatalf("Processed = %d, want 1", res.Processed)
	}
	if res.Filtered["consent-denied"] != 1 {
		t.Fatalf("Filtered = %v", res.Filtered)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].(int64) != 33 { // 2023 - 1990
		t.Fatalf("Outputs = %v", res.Outputs)
	}
}

func TestViewHidesFields(t *testing.T) {
	e := newEnv(t)
	alice, _ := e.seedUsers(t)
	nosy := &Func{
		Name:    "nosy",
		Purpose: "purpose3",
		Fn: func(c *Ctx) (Output, error) {
			// The purpose declares name, but purpose3's grant is view
			// v_ano: name must be invisible, and the run goes on.
			if c.Has("name") {
				return Output{}, errors.New("name visible under v_ano")
			}
			_, err := c.Field("name")
			if !errors.Is(err, ErrFieldHidden) {
				return Output{}, errors.New("Field(name) did not fail")
			}
			return Output{NonPD: true}, nil
		},
	}
	decl := purpose3()
	decl.Reads = append(decl.Reads, "user.name")
	res, err := e.ded.Run(Invocation{Purpose: decl, Impl: nosy, PDRef: alice})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Processed != 1 {
		t.Fatalf("Processed = %d", res.Processed)
	}
}

// TestUndeclaredReadFailsRun: under a grant that shows every field, a
// processing that reads, swallows or probes a field its purpose does not
// declare gets ErrUndeclaredRead, no result and exactly one audit alert.
func TestUndeclaredReadFailsRun(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Ctx) (Output, error)
	}{
		{"field", func(c *Ctx) (Output, error) {
			v, err := c.Field("name")
			if err != nil {
				return Output{}, err
			}
			return Output{NonPD: len(v.S)}, nil
		}},
		{"field-swallowed", func(c *Ctx) (Output, error) {
			_, _ = c.Field("name")
			return Output{NonPD: 1}, nil
		}},
		{"has", func(c *Ctx) (Output, error) {
			if c.Has("name") {
				return Output{NonPD: 2}, nil
			}
			return Output{NonPD: 1}, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			alice, _ := e.seedUsers(t)
			// purpose1's grant is GrantAll: name is consented, not declared.
			decl := &purpose.Decl{Name: "purpose1", Description: "birth-year statistics",
				Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}}
			impl := &Func{Name: "sneaky", Purpose: "purpose1",
				DeclaredReads: []string{"user.year_of_birthdate"}, Fn: tc.fn}
			res, err := e.ded.Run(Invocation{Purpose: decl, Impl: impl, PDRef: alice})
			if !errors.Is(err, ErrUndeclaredRead) {
				t.Fatalf("err = %v, want ErrUndeclaredRead", err)
			}
			if res != nil {
				t.Fatalf("result = %+v, want nil", res)
			}
			if n := e.log.CountByKind()[audit.KindAlert]; n != 1 {
				t.Fatalf("audit alerts = %d, want 1", n)
			}
		})
	}
}

func TestSandboxBlocksExfiltration(t *testing.T) {
	e := newEnv(t)
	alice, _ := e.seedUsers(t)
	leaky := &Func{
		Name:    "leaky",
		Purpose: "purpose3",
		Fn: func(c *Ctx) (Output, error) {
			if err := c.Env().WriteFile("/tmp/steal", []byte("pd")); err != nil {
				return Output{}, err // propagate the denial
			}
			return Output{NonPD: "leaked"}, nil
		},
	}
	_, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: leaky, PDRef: alice})
	if err == nil {
		t.Fatal("exfiltrating function succeeded")
	}
	if got := err.Error(); got == "" {
		t.Fatal("empty error")
	}
}

func TestReturnScrubBlocksRawPD(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	thief := &Func{
		Name:    "thief",
		Purpose: "purpose1", // GrantAll: all fields visible
		Fn: func(c *Ctx) (Output, error) {
			v, err := c.Field("name")
			if err != nil {
				return Output{}, err
			}
			return Output{NonPD: v.S}, nil // raw PD in the non-PD slot
		},
	}
	decl := &purpose.Decl{Name: "purpose1", Description: "full access op",
		Basis: purpose.BasisLegitimateInterest, Reads: []string{"user.name"}}
	_, err := e.ded.Run(Invocation{Purpose: decl, Impl: thief, TypeName: "user", SubjectFilter: "alice"})
	if !errors.Is(err, ErrPDInOutput) {
		t.Fatalf("err = %v, want ErrPDInOutput", err)
	}
}

func TestGeneratedPDGetsMembraneAndRef(t *testing.T) {
	e := newEnv(t)
	alice, _ := e.seedUsers(t)
	// age_pd type must exist for ded_store.
	ageSchema := &dbfs.Schema{
		Name:   "age_pd",
		Fields: []dbfs.Field{{Name: "age", Type: dbfs.TypeInt}},
	}
	if err := e.store.CreateType(e.tok, ageSchema); err != nil {
		t.Fatal(err)
	}
	gen := &Func{
		Name:    "compute_age_pd",
		Purpose: "purpose3",
		Fn: func(c *Ctx) (Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return Output{}, err
			}
			return Output{Generated: &GeneratedPD{
				TypeName:  "age_pd",
				SubjectID: c.SubjectID(),
				Fields:    dbfs.Record{"age": dbfs.I(2023 - yob.I)},
			}}, nil
		},
	}
	res, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: gen, PDRef: alice})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// ded_return gave a reference, not PD.
	if len(res.PDRefs) != 1 || len(res.Outputs) != 0 {
		t.Fatalf("refs/outputs = %v / %v", res.PDRefs, res.Outputs)
	}
	gm, err := e.store.GetMembrane(e.tok, res.PDRefs[0])
	if err != nil {
		t.Fatalf("generated membrane: %v", err)
	}
	if gm.Origin != membrane.OriginDerived {
		t.Fatalf("origin = %v, want derived", gm.Origin)
	}
	if gm.SubjectID != "alice" || gm.TypeName != "age_pd" {
		t.Fatalf("identity = %+v", gm)
	}
	// Derived PD inherits the source's consents (conservative policy).
	if g := gm.Consents["purpose3"]; g.View != "v_ano" {
		t.Fatalf("inherited consents = %+v", gm.Consents)
	}
	// The durable CopyOf link puts derived PD in its source's family.
	if gm.CopyOf != alice || gm.Root() != alice {
		t.Fatalf("derived CopyOf = %q, want source %q", gm.CopyOf, alice)
	}
}

// TestGeneratedPDCrossSubjectRejected checks the same-subject rule for
// generated PD: a family is read from its subject's listing, so a run that
// files generated PD under another subject fails with ErrCrossSubject and
// one audit alert, and stores none of its generated PD — not even the
// outputs of rows that kept the rule.
func TestGeneratedPDCrossSubjectRejected(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	if _, err := e.store.Insert(e.tok, "user", "carol", dbfs.Record{
		"name": dbfs.S("Carol"), "year_of_birthdate": dbfs.I(2000),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.store.CreateType(e.tok, &dbfs.Schema{
		Name:   "age_pd",
		Fields: []dbfs.Field{{Name: "age", Type: dbfs.TypeInt}},
	}); err != nil {
		t.Fatal(err)
	}
	gen := &Func{
		Name:          "file_under_alice",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *Ctx) (Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return Output{}, err
			}
			// Every row's output is filed under alice: right for alice's
			// own record, a cross-subject write for carol's.
			return Output{Generated: &GeneratedPD{
				TypeName:  "age_pd",
				SubjectID: "alice",
				Fields:    dbfs.Record{"age": dbfs.I(2023 - yob.I)},
			}}, nil
		},
	}
	alertsBefore := e.log.CountByKind()[audit.KindAlert]
	_, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: gen, TypeName: "user"})
	if !errors.Is(err, ErrCrossSubject) {
		t.Fatalf("Run err = %v, want ErrCrossSubject", err)
	}
	if got := e.log.CountByKind()[audit.KindAlert] - alertsBefore; got != 1 {
		t.Fatalf("alerts appended = %d, want 1", got)
	}
	stored, err := e.store.ListByType(e.tok, "age_pd")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 0 {
		t.Fatalf("generated PD stored despite the rejected run: %v", stored)
	}
}

func TestFilterReasons(t *testing.T) {
	e := newEnv(t)
	alice, bob := e.seedUsers(t)
	// Erase alice, expire nothing yet; bob already lacks consent. An
	// erased record leaves the type listing, so a type query filters bob
	// only, and alice is reached by her pdid.
	if _, err := e.store.Erase(e.tok, alice); err != nil {
		t.Fatal(err)
	}
	res, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 0 || res.Filtered["erased"] != 0 || res.Filtered["consent-denied"] != 1 {
		t.Fatalf("res = %+v", res)
	}
	res, err = e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), PDRef: alice})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 0 || res.Filtered["erased"] != 1 {
		t.Fatalf("erased by pdid: res = %+v", res)
	}
	_ = bob

	// TTL expiry: advance past 1 year.
	e.clock.Advance(366 * 24 * time.Hour)
	carol, err := e.store.Insert(e.tok, "user", "carol", dbfs.Record{
		"name": dbfs.S("Carol"), "year_of_birthdate": dbfs.I(2000),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = carol
	e.clock.Advance(366 * 24 * time.Hour)
	res, err = e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	// Both bob (created at epoch; expiry outranks his withdrawn consent in
	// the Decide order) and carol (created a year in) are now expired.
	if res.Filtered["expired"] != 2 {
		t.Fatalf("expired not detected: %+v", res.Filtered)
	}

	// Restriction (Art. 18).
	dave, err := e.store.Insert(e.tok, "user", "dave", dbfs.Record{"name": dbfs.S("Dave"), "year_of_birthdate": dbfs.I(1999)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.MutateMembrane(e.tok, dave, func(m *membrane.Membrane) error {
		m.Restricted = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err = e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), PDRef: dave})
	if err != nil {
		t.Fatal(err)
	}
	if res.Filtered["restricted"] != 1 {
		t.Fatalf("restricted not detected: %+v", res.Filtered)
	}
}

func TestMaintenanceBypassesConsent(t *testing.T) {
	e := newEnv(t)
	_, bob := e.seedUsers(t)
	upd := &Func{
		Name:    "update",
		Purpose: "__builtin_update",
		WriteFn: func(w *WriteCtx) error {
			rec, err := w.Record()
			if err != nil {
				return err
			}
			rec["name"] = dbfs.S("Robert")
			return w.Update(rec)
		},
	}
	decl := &purpose.Decl{Name: "__builtin_update", Description: "rectification",
		Basis: purpose.BasisLegalObligation}
	res, err := e.ded.Run(Invocation{Purpose: decl, Impl: upd, PDRef: bob, Maintenance: true})
	if err != nil {
		t.Fatalf("maintenance Run: %v", err)
	}
	if res.Processed != 1 {
		t.Fatalf("Processed = %d", res.Processed)
	}
	rec, err := e.store.GetRecord(e.tok, bob)
	if err != nil {
		t.Fatal(err)
	}
	if rec["name"].S != "Robert" {
		t.Fatalf("rectification lost: %v", rec)
	}
}

func TestWriteCtxCopyLinksFamily(t *testing.T) {
	e := newEnv(t)
	alice, _ := e.seedUsers(t)
	var copied string
	cp := &Func{
		Name:    "copy",
		Purpose: "__builtin_copy",
		WriteFn: func(w *WriteCtx) error {
			ref, err := w.Copy()
			copied = ref
			return err
		},
	}
	decl := &purpose.Decl{Name: "__builtin_copy", Description: "copy builtin",
		Basis: purpose.BasisLegalObligation}
	res, err := e.ded.Run(Invocation{Purpose: decl, Impl: cp, PDRef: alice, Maintenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PDRefs) != 1 || res.PDRefs[0] != copied {
		t.Fatalf("PDRefs = %v, copied = %q", res.PDRefs, copied)
	}
	// The copy's membrane traces provenance and shares consents.
	cm, err := e.store.GetMembrane(e.tok, copied)
	if err != nil {
		t.Fatal(err)
	}
	if cm.CopyOf != alice || cm.Origin != membrane.OriginSubject {
		t.Fatalf("CopyOf = %q, origin %v; want %q, the source's origin", cm.CopyOf, cm.Origin, alice)
	}
	// The copied record's data matches.
	rec, err := e.store.GetRecord(e.tok, copied)
	if err != nil {
		t.Fatal(err)
	}
	if rec["name"].S != "Alice" {
		t.Fatalf("copied record = %v", rec)
	}
}

func TestWriteCtxEraseAndConsent(t *testing.T) {
	e := newEnv(t)
	alice, _ := e.seedUsers(t)
	decl := &purpose.Decl{Name: "__builtin_delete", Description: "right to be forgotten",
		Basis: purpose.BasisLegalObligation}
	var escrow string
	erase := &Func{
		Name:    "delete",
		Purpose: "__builtin_delete",
		WriteFn: func(w *WriteCtx) error {
			ref, err := w.Erase()
			escrow = ref
			return err
		},
	}
	if _, err := e.ded.Run(Invocation{Purpose: decl, Impl: erase, PDRef: alice, Maintenance: true}); err != nil {
		t.Fatal(err)
	}
	if escrow == "" {
		t.Fatal("no escrow ref")
	}
	m, err := e.store.GetMembrane(e.tok, alice)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Erased || m.EscrowRef != escrow {
		t.Fatalf("membrane = %+v", m)
	}
	// Audit captured the erasure.
	kinds := e.log.CountByKind()
	if kinds[audit.KindErasure] != 1 {
		t.Fatalf("audit kinds = %v", kinds)
	}
}

func TestInvocationValidation(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	p := purpose3()
	if _, err := e.ded.Run(Invocation{Purpose: p, Impl: computeAge()}); !errors.Is(err, ErrNoTarget) {
		t.Fatalf("no target err = %v", err)
	}
	if _, err := e.ded.Run(Invocation{Impl: computeAge(), TypeName: "user"}); !errors.Is(err, ErrNotFunc) {
		t.Fatalf("no purpose err = %v", err)
	}
	if _, err := e.ded.Run(Invocation{Purpose: p, TypeName: "user"}); !errors.Is(err, ErrNotFunc) {
		t.Fatalf("no impl err = %v", err)
	}
	both := &Func{Name: "x", Purpose: "p",
		Fn:      func(*Ctx) (Output, error) { return Output{}, nil },
		WriteFn: func(*WriteCtx) error { return nil },
	}
	if _, err := e.ded.Run(Invocation{Purpose: p, Impl: both, TypeName: "user"}); !errors.Is(err, ErrNotFunc) {
		t.Fatalf("both bodies err = %v", err)
	}
}

func TestSubjectFilterTargeting(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	decl := &purpose.Decl{Name: "purpose1", Description: "op", Basis: purpose.BasisLegitimateInterest}
	count := &Func{
		Name:    "count",
		Purpose: "purpose1",
		Fn:      func(c *Ctx) (Output, error) { return Output{NonPD: 1}, nil },
	}
	res, err := e.ded.Run(Invocation{Purpose: decl, Impl: count, TypeName: "user", SubjectFilter: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 1 {
		t.Fatalf("Processed = %d, want only alice", res.Processed)
	}
}

func TestAuditTrailOfRun(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	if _, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), TypeName: "user"}); err != nil {
		t.Fatal(err)
	}
	if err := e.log.Verify(); err != nil {
		t.Fatalf("audit chain: %v", err)
	}
	kinds := e.log.CountByKind()
	if kinds[audit.KindProcessing] != 1 || kinds[audit.KindDenial] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	// Per-PD query (the §4 right-of-access path) sees the processing.
	byPD := e.log.ByPD("user/alice/1")
	if len(byPD) != 1 || byPD[0].Purpose != "purpose3" {
		t.Fatalf("ByPD = %+v", byPD)
	}
}

func TestStageTimingsPopulated(t *testing.T) {
	e := newEnv(t)
	e.seedUsers(t)
	res, err := e.ded.Run(Invocation{Purpose: purpose3(), Impl: computeAge(), TypeName: "user"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Total() <= 0 {
		t.Fatalf("timings = %+v", res.Timings)
	}
}
