package builtins

import (
	"errors"
	"testing"

	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/collect"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/simclock"
)

type rig struct {
	store *dbfs.Store
	log   *audit.Log
	d     *ded.DED
	ps    *ps.Store
	tok   *lsm.Token
	reg   *collect.Registry
	acq   *Acquirer
}

func newRig(t *testing.T) *rig {
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
	store, err := dbfs.Create([]*inode.FS{fs}, guard, cryptoshred.NewVault(auth.PublicKey()), clock, dbfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tok := guard.Mint("ded", lsm.CapDBFS)
	log := audit.NewLog(clock)
	d := ded.New(store, tok, log, clock)
	reg := collect.NewRegistry()
	p := ps.New(d, log, nil)
	if err := Register(p); err != nil {
		t.Fatalf("Register builtins: %v", err)
	}
	return &rig{store: store, log: log, d: d, ps: p, tok: tok, reg: reg,
		acq: NewAcquirer(d, reg, log)}
}

func (r *rig) declareUser(t *testing.T) {
	t.Helper()
	sch := &dbfs.Schema{
		Name: "user",
		Fields: []dbfs.Field{
			{Name: "name", Type: dbfs.TypeString},
			{Name: "year_of_birthdate", Type: dbfs.TypeInt},
		},
		DefaultConsent: map[string]membrane.Grant{"p": {Kind: membrane.GrantAll}},
		Collection:     map[string]string{"web_form": "user_form.html"},
	}
	if err := r.store.CreateType(r.tok, sch); err != nil {
		t.Fatal(err)
	}
}

func TestAllBuiltinsRegistered(t *testing.T) {
	r := newRig(t)
	names := r.ps.List()
	want := []string{ConsentName, CopyName, DeleteName, EraseName, RestrictName, UpdateName}
	if len(names) != len(want) {
		t.Fatalf("List = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("List[%d] = %s, want %s", i, names[i], n)
		}
		info, err := r.ps.Get(n)
		if err != nil || !info.Builtin || info.State != ps.StateActive {
			t.Fatalf("builtin %s info = %+v, %v", n, info, err)
		}
	}
}

func TestAcquirerWrapsMembraneWithProvenance(t *testing.T) {
	r := newRig(t)
	r.declareUser(t)
	form := collect.NewWebFormSource("user_form.html")
	r.reg.Register("user", form)
	tp := collect.NewThirdPartySource("fetch_data.py", func(subject string) (dbfs.Record, error) {
		return dbfs.Record{"name": dbfs.S("partner-" + subject), "year_of_birthdate": dbfs.I(1970)}, nil
	})
	r.reg.Register("user", tp)

	form.Submit("alice", dbfs.Record{"name": dbfs.S("Alice"), "year_of_birthdate": dbfs.I(1990)})
	n, err := r.acq.Acquire("user", "web_form", []string{"alice", "ghost"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if n != 1 { // ghost had no pending submission: skipped, not fatal
		t.Fatalf("Acquire n = %d", n)
	}
	m, err := r.store.GetMembrane(r.tok, "user/alice/1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Origin != membrane.OriginSubject {
		t.Fatalf("web form origin = %v", m.Origin)
	}
	if m.CreatedAt.IsZero() {
		t.Fatal("CreatedAt not stamped")
	}
	if g := m.Consents["p"]; g.Kind != membrane.GrantAll {
		t.Fatalf("default consent missing: %+v", m.Consents)
	}

	// Third-party provenance is recorded differently.
	if _, err := r.acq.Acquire("user", "third_party", []string{"bob"}); err != nil {
		t.Fatal(err)
	}
	m2, err := r.store.GetMembrane(r.tok, "user/bob/2")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Origin != membrane.OriginThirdParty {
		t.Fatalf("third-party origin = %v", m2.Origin)
	}
	// Collection is in the audit trail.
	if got := r.log.CountByKind()[audit.KindCollection]; got != 2 {
		t.Fatalf("collection audit entries = %d", got)
	}
}

func TestAcquirerErrors(t *testing.T) {
	r := newRig(t)
	r.declareUser(t)
	if _, err := r.acq.Acquire("user", "carrier_pigeon", []string{"a"}); !errors.Is(err, collect.ErrNoSource) {
		t.Fatalf("unknown method err = %v", err)
	}
	form := collect.NewWebFormSource("user_form.html")
	r.reg.Register("ghost-type", form)
	if _, err := r.acq.Acquire("ghost-type", "web_form", []string{"a"}); !errors.Is(err, dbfs.ErrNoType) {
		t.Fatalf("unknown type err = %v", err)
	}
}

func TestUpdateBuiltinThroughPS(t *testing.T) {
	r := newRig(t)
	r.declareUser(t)
	pdid, err := r.store.Insert(r.tok, "user", "alice",
		dbfs.Record{"name": dbfs.S("Alice"), "year_of_birthdate": dbfs.I(1990)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ps.Invoke(ps.InvokeRequest{
		Processing: UpdateName, PDRef: pdid,
		Params: map[string]any{ParamFields: dbfs.Record{"year_of_birthdate": dbfs.I(1991)}},
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := r.store.GetRecord(r.tok, pdid)
	if err != nil || rec["year_of_birthdate"].I != 1991 || rec["name"].S != "Alice" {
		t.Fatalf("rec = %v, %v", rec, err)
	}
	// Wrong param type is rejected.
	if _, err := r.ps.Invoke(ps.InvokeRequest{
		Processing: UpdateName, PDRef: pdid,
		Params: map[string]any{ParamFields: "not-a-record"},
	}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad fields err = %v", err)
	}
}

func TestConsentBuiltinGrantAndWithdraw(t *testing.T) {
	r := newRig(t)
	r.declareUser(t)
	pdid, err := r.store.Insert(r.tok, "user", "a",
		dbfs.Record{"name": dbfs.S("A"), "year_of_birthdate": dbfs.I(1980)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Grant.
	if _, err := r.ps.Invoke(ps.InvokeRequest{
		Processing: ConsentName, PDRef: pdid,
		Params: map[string]any{ParamPurpose: "newsletter", ParamGrant: membrane.Grant{Kind: membrane.GrantAll}},
	}); err != nil {
		t.Fatal(err)
	}
	m, _ := r.store.GetMembrane(r.tok, pdid)
	if m.Consents["newsletter"].Kind != membrane.GrantAll {
		t.Fatalf("consents = %+v", m.Consents)
	}
	// Withdraw (no grant param).
	if _, err := r.ps.Invoke(ps.InvokeRequest{
		Processing: ConsentName, PDRef: pdid,
		Params: map[string]any{ParamPurpose: "newsletter"},
	}); err != nil {
		t.Fatal(err)
	}
	m, _ = r.store.GetMembrane(r.tok, pdid)
	if m.Consents["newsletter"].Kind != membrane.GrantNone {
		t.Fatalf("consents after withdraw = %+v", m.Consents)
	}
	// Version advanced with each change (2 mutations + insert baseline).
	if m.Version < 2 {
		t.Fatalf("version = %d", m.Version)
	}
}

func TestDeleteBuiltinRemoves(t *testing.T) {
	r := newRig(t)
	r.declareUser(t)
	pdid, err := r.store.Insert(r.tok, "user", "a",
		dbfs.Record{"name": dbfs.S("A"), "year_of_birthdate": dbfs.I(1980)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ps.Invoke(ps.InvokeRequest{Processing: DeleteName, PDRef: pdid}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.store.GetRecord(r.tok, pdid); !errors.Is(err, dbfs.ErrNoRecord) {
		t.Fatalf("record survives delete: %v", err)
	}
}
