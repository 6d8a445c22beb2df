package rights

import (
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/builtins"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/simclock"
)

// rig is a full rgpdOS stack for rights tests: DBFS + DED + PS with the
// builtins registered, plus the rights engine.
type rig struct {
	dev    *blockdev.Mem
	store  *dbfs.Store
	guard  *lsm.Guard
	vault  *cryptoshred.Vault
	auth   *cryptoshred.Authority
	log    *audit.Log
	clock  *simclock.Sim
	d      *ded.DED
	ps     *ps.Store
	engine *Engine
	tok    *lsm.Token
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWith(t, dbfs.Config{})
}

// newRigWith is newRig with a store created from cfg.
func newRigWith(t *testing.T, cfg dbfs.Config) *rig {
	t.Helper()
	dev := blockdev.MustMem(8192)
	clock := simclock.NewSim(simclock.Epoch)
	fs, err := inode.Format(dev, inode.Options{NInodes: 4096, JournalBlocks: 128, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		t.Fatal(err)
	}
	guard := lsm.NewGuard()
	vault := cryptoshred.NewVault(auth.PublicKey())
	store, err := dbfs.Create([]*inode.FS{fs}, guard, vault, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wireRig(t, &rig{dev: dev, store: store, guard: guard, vault: vault, auth: auth, clock: clock})
}

// wireRig builds the DED, Processing Store (builtins registered) and rights
// engine over r's store.
func wireRig(t *testing.T, r *rig) *rig {
	t.Helper()
	r.tok = r.guard.Mint("ded", lsm.CapDBFS)
	r.log = audit.NewLog(r.clock)
	r.d = ded.New(r.store, r.tok, r.log, r.clock)
	r.ps = ps.New(r.d, r.log, nil)
	if err := builtins.Register(r.ps); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.engine, err = New(r.ps, r.d, r.log, r.clock, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// remount is a restart: the rig's device is mounted again (journal
// replay), DBFS is reopened on it, and a fresh DED, Processing Store and
// rights engine are built on top. Only the key vault and the capability
// guard carry over; whatever lived in the old engines' memory is gone.
func (r *rig) remount(t *testing.T) *rig {
	t.Helper()
	fs, err := inode.Mount(r.dev, r.clock)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	store, err := dbfs.Open([]*inode.FS{fs}, r.guard, r.vault, r.clock, dbfs.Config{})
	if err != nil {
		t.Fatalf("dbfs.Open: %v", err)
	}
	return wireRig(t, &rig{dev: r.dev, store: store, guard: r.guard, vault: r.vault, auth: r.auth, clock: r.clock})
}

// copyOf runs the copy builtin on pdid and returns the copy's pdid.
func (r *rig) copyOf(t *testing.T, pdid string) string {
	t.Helper()
	res, err := r.ps.Invoke(ps.InvokeRequest{Processing: builtins.CopyName, PDRef: pdid})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PDRefs) != 1 {
		t.Fatalf("copy refs = %v", res.PDRefs)
	}
	return res.PDRefs[0]
}

// erasedSet reports, per pdid, whether its stored membrane is erased.
func (r *rig) erasedSet(t *testing.T, pdids ...string) map[string]bool {
	t.Helper()
	out := make(map[string]bool, len(pdids))
	for _, id := range pdids {
		m, err := r.store.GetMembrane(r.tok, id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = m.Erased
	}
	return out
}

func (r *rig) seedUser(t *testing.T, subject, name string, yob int64) string {
	t.Helper()
	sch := &dbfs.Schema{
		Name: "user",
		Fields: []dbfs.Field{
			{Name: "name", Type: dbfs.TypeString},
			{Name: "year_of_birthdate", Type: dbfs.TypeInt},
		},
		Views: []dbfs.View{{Name: "v_ano", Fields: []string{"year_of_birthdate"}}},
		DefaultConsent: map[string]membrane.Grant{
			"purpose3": {Kind: membrane.GrantView, View: "v_ano"},
		},
		DefaultTTL: 365 * 24 * time.Hour,
	}
	if _, err := r.store.SchemaOf(r.tok, "user"); err != nil {
		if err := r.store.CreateType(r.tok, sch); err != nil {
			t.Fatal(err)
		}
	}
	pdid, err := r.store.Insert(r.tok, "user", subject, dbfs.Record{
		"name": dbfs.S(name), "year_of_birthdate": dbfs.I(yob),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pdid
}

func TestAccessReportStructure(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "chiraz", "Chiraz Benamor", 1990)

	// Run a processing so the history has an entry.
	decl := &purpose.Decl{Name: "purpose3", Description: "Compute the age",
		Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}}
	impl := &ded.Func{Name: "compute_age", Purpose: "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			v, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: 2023 - v.I}, nil
		}}
	if err := r.ps.Register(decl, impl, false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ps.Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user"}); err != nil {
		t.Fatal(err)
	}

	report, err := r.engine.Access("chiraz")
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	users := report.Data["user"]
	if len(users) != 1 {
		t.Fatalf("Data = %+v", report.Data)
	}
	// The §4 point: keys are the meaningful field names, not opaque pairs.
	if users[0].Fields["name"] != "Chiraz Benamor" {
		t.Fatalf("Fields = %v", users[0].Fields)
	}
	if users[0].Fields["year_of_birthdate"] != int64(1990) {
		t.Fatalf("Fields = %v", users[0].Fields)
	}
	if users[0].Consents["purpose3"] != "v_ano" {
		t.Fatalf("Consents = %v", users[0].Consents)
	}
	// Per-PD processing history present.
	if len(report.PerPD[pdid]) == 0 {
		t.Fatal("no per-PD processing history")
	}
	found := false
	for _, e := range report.PerPD[pdid] {
		if e.Kind == "processing" && e.Purpose == "purpose3" && e.Outcome == "ok" {
			found = true
		}
	}
	if !found {
		t.Fatalf("PerPD = %+v", report.PerPD[pdid])
	}

	// Machine-readable: valid JSON whose keys make sense.
	raw, err := ExportJSON(report)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	s := string(raw)
	for _, key := range []string{`"subject"`, `"year_of_birthdate"`, `"consents"`, `"per_pd"`} {
		if !strings.Contains(s, key) {
			t.Fatalf("export missing key %s", key)
		}
	}
}

func TestEraseSubjectEndToEnd(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "alice", "Alice Martin", 1985)

	// The operator loses access; raw media holds no plaintext; authority
	// can still recover via escrow — the complete §4 model.
	report, err := r.engine.Erase("alice")
	if err != nil {
		t.Fatalf("Erase: %v", err)
	}
	if len(report.Erased) != 1 || report.Erased[0] != pdid {
		t.Fatalf("report = %+v", report)
	}
	if _, err := r.store.GetRecord(r.tok, pdid); err == nil {
		t.Fatal("operator can still read erased PD")
	}
	if hits := blockdev.FindResidue(r.dev, []byte("Alice Martin")); len(hits) != 0 {
		t.Fatalf("plaintext residue at %v", hits)
	}
	m, err := r.store.GetMembrane(r.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Erased || m.EscrowRef == "" {
		t.Fatalf("membrane = %+v", m)
	}
	escrow, err := r.vault.Escrow(m.EscrowRef)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := r.store.RawCiphertext(r.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := r.auth.Recover(escrow, ct)
	if err != nil {
		t.Fatalf("authority Recover: %v", err)
	}
	if !strings.Contains(string(pt), "Alice Martin") {
		t.Fatal("authority recovered wrong data")
	}

	// The erased record still shows in the access report, fields omitted.
	acc, err := r.engine.Access("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Data["user"][0]; !got.Erased || got.Fields != nil {
		t.Fatalf("post-erasure export = %+v", got)
	}
}

func TestEraseFollowsCopies(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "bob", "Bob Stone", 1970)
	// Copy via the builtin.
	res, err := r.ps.Invoke(ps.InvokeRequest{
		Processing: builtins.CopyName, PDRef: pdid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PDRefs) != 1 {
		t.Fatalf("copy refs = %v", res.PDRefs)
	}
	copyID := res.PDRefs[0]

	report, err := r.engine.Erase("bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Erased) != 2 {
		t.Fatalf("Erased = %v, want original+copy", report.Erased)
	}
	for _, id := range []string{pdid, copyID} {
		m, err := r.store.GetMembrane(r.tok, id)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Erased {
			t.Fatalf("%s not erased", id)
		}
	}
}

// TestEraseRecordFollowsCopiesAfterRemount checks that copy families are
// durable: after a restart, erasing any member of a family — here a copy
// of a copy — erases the original and every copy, and nothing else of the
// subject.
func TestEraseRecordFollowsCopiesAfterRemount(t *testing.T) {
	r := newRig(t)
	orig := r.seedUser(t, "bob", "Bob Stone", 1970)
	other := r.seedUser(t, "bob", "Robert Stone", 1970)
	cp := r.copyOf(t, orig)
	cpcp := r.copyOf(t, cp)

	r2 := r.remount(t)
	erased, err := r2.engine.EraseRecord(cpcp)
	if err != nil {
		t.Fatalf("EraseRecord: %v", err)
	}
	want := []string{orig, cp, cpcp}
	sort.Strings(want)
	if strings.Join(erased, ",") != strings.Join(want, ",") {
		t.Fatalf("EraseRecord erased %v, want %v", erased, want)
	}
	got := r2.erasedSet(t, orig, cp, cpcp, other)
	if !got[orig] || !got[cp] || !got[cpcp] || got[other] {
		t.Fatalf("erased after remount = %v, want the family only", got)
	}
}

// TestEraseRecordFollowsDerivedAfterRemount checks that PD derived by a
// processing joins its source's family durably: after a restart, erasing
// the source erases the derived record too, and nothing else.
func TestEraseRecordFollowsDerivedAfterRemount(t *testing.T) {
	r := newRig(t)
	src := r.seedUser(t, "dora", "Dora", 1969)
	other := r.seedUser(t, "dora", "Dora B.", 1969)
	if err := r.store.CreateType(r.tok, &dbfs.Schema{
		Name:   "age_pd",
		Fields: []dbfs.Field{{Name: "age", Type: dbfs.TypeInt}},
	}); err != nil {
		t.Fatal(err)
	}
	decl := &purpose.Decl{Name: "purpose3", Description: "Derive the age",
		Basis: purpose.BasisConsent, Reads: []string{"user.year_of_birthdate"}, Produces: "age_pd"}
	impl := &ded.Func{Name: "derive_age", Purpose: "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			v, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{Generated: &ded.GeneratedPD{
				TypeName: "age_pd", SubjectID: c.SubjectID(),
				Fields: dbfs.Record{"age": dbfs.I(2023 - v.I)},
			}}, nil
		}}
	if err := r.ps.Register(decl, impl, false); err != nil {
		t.Fatal(err)
	}
	res, err := r.ps.Invoke(ps.InvokeRequest{Processing: "purpose3", PDRef: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PDRefs) != 1 {
		t.Fatalf("derived refs = %v", res.PDRefs)
	}
	derived := res.PDRefs[0]

	r2 := r.remount(t)
	erased, err := r2.engine.EraseRecord(src)
	if err != nil {
		t.Fatalf("EraseRecord: %v", err)
	}
	want := []string{src, derived}
	sort.Strings(want)
	if strings.Join(erased, ",") != strings.Join(want, ",") {
		t.Fatalf("EraseRecord erased %v, want %v", erased, want)
	}
	got := r2.erasedSet(t, src, derived, other)
	if !got[src] || !got[derived] || got[other] {
		t.Fatalf("erased after remount = %v, want source and derived only", got)
	}
}

func TestRectify(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "carol", "Carole", 1991)
	if err := r.engine.Rectify(pdid, dbfs.Record{"name": dbfs.S("Carole Verified")}); err != nil {
		t.Fatalf("Rectify: %v", err)
	}
	rec, err := r.store.GetRecord(r.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	if rec["name"].S != "Carole Verified" || rec["year_of_birthdate"].I != 1991 {
		t.Fatalf("rec = %v (partial update must keep other fields)", rec)
	}
}

func TestConsentPropagationToCopies(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "dora", "Dora", 1969)
	res, err := r.ps.Invoke(ps.InvokeRequest{Processing: builtins.CopyName, PDRef: pdid})
	if err != nil {
		t.Fatal(err)
	}
	copyID := res.PDRefs[0]

	if err := r.engine.WithdrawConsent("dora", "purpose3"); err != nil {
		t.Fatalf("WithdrawConsent: %v", err)
	}
	for _, id := range []string{pdid, copyID} {
		m, err := r.store.GetMembrane(r.tok, id)
		if err != nil {
			t.Fatal(err)
		}
		if g := m.Consents["purpose3"]; g.Kind != membrane.GrantNone {
			t.Fatalf("%s consent = %+v (not propagated)", id, g)
		}
	}
	// Re-grant.
	if err := r.engine.SetConsent("dora", "purpose3", membrane.Grant{Kind: membrane.GrantAll}); err != nil {
		t.Fatal(err)
	}
	m, _ := r.store.GetMembrane(r.tok, copyID)
	if g := m.Consents["purpose3"]; g.Kind != membrane.GrantAll {
		t.Fatalf("re-grant not propagated: %+v", g)
	}
}

func TestRestrict(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "erin", "Erin", 2001)
	if err := r.engine.Restrict(pdid, true); err != nil {
		t.Fatal(err)
	}
	m, err := r.store.GetMembrane(r.tok, pdid)
	if err != nil || !m.Restricted {
		t.Fatalf("membrane = %+v, %v", m, err)
	}
	if err := r.engine.Restrict(pdid, false); err != nil {
		t.Fatal(err)
	}
	m, _ = r.store.GetMembrane(r.tok, pdid)
	if m.Restricted {
		t.Fatal("restriction not lifted")
	}
}

func TestSweepExpired(t *testing.T) {
	r := newRig(t)
	oldPD := r.seedUser(t, "frank", "Frank", 1950)
	r.clock.Advance(200 * 24 * time.Hour)
	freshPD := r.seedUser(t, "grace", "Grace", 1999)
	// frank's record: 200 days old (TTL 1Y) — not expired yet.
	deleted, err := r.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 0 {
		t.Fatalf("premature sweep: %v", deleted)
	}
	// +200 more days: frank expired (400d), grace not (200d).
	r.clock.Advance(200 * 24 * time.Hour)
	deleted, err = r.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] != oldPD {
		t.Fatalf("sweep = %v, want [%s]", deleted, oldPD)
	}
	if _, err := r.store.GetRecord(r.tok, oldPD); !errors.Is(err, dbfs.ErrNoRecord) {
		t.Fatalf("expired record still present: %v", err)
	}
	if _, err := r.store.GetRecord(r.tok, freshPD); err != nil {
		t.Fatalf("fresh record deleted: %v", err)
	}
}

func TestPortability(t *testing.T) {
	r := newRig(t)
	r.seedUser(t, "hana", "Hana", 1988)
	raw, err := r.engine.Portability("hana")
	if err != nil {
		t.Fatal(err)
	}
	var data map[string][]RecordExport
	if err := json.Unmarshal(raw, &data); err != nil {
		t.Fatalf("portability export not JSON: %v", err)
	}
	if len(data["user"]) != 1 || data["user"][0].Fields["name"] != "Hana" {
		t.Fatalf("portability data = %+v", data)
	}
}

func TestBuiltinBadParams(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "ivy", "Ivy", 1993)
	// update without fields param
	_, err := r.ps.Invoke(ps.InvokeRequest{Processing: builtins.UpdateName, PDRef: pdid})
	if !errors.Is(err, builtins.ErrBadParams) {
		t.Fatalf("update no params err = %v", err)
	}
	// consent without purpose
	_, err = r.ps.Invoke(ps.InvokeRequest{Processing: builtins.ConsentName, PDRef: pdid})
	if !errors.Is(err, builtins.ErrBadParams) {
		t.Fatalf("consent no params err = %v", err)
	}
	// restrict with wrong type
	_, err = r.ps.Invoke(ps.InvokeRequest{Processing: builtins.RestrictName, PDRef: pdid,
		Params: map[string]any{builtins.ParamRestricted: "yes"}})
	if !errors.Is(err, builtins.ErrBadParams) {
		t.Fatalf("restrict bad type err = %v", err)
	}
}

func TestAuditTrailSurvivesRights(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "jack", "Jack", 1977)
	if err := r.engine.Rectify(pdid, dbfs.Record{"name": dbfs.S("Jacques")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.Erase("jack"); err != nil {
		t.Fatal(err)
	}
	if err := r.log.Verify(); err != nil {
		t.Fatalf("audit chain broken: %v", err)
	}
	kinds := r.log.CountByKind()
	if kinds[audit.KindErasure] == 0 || kinds[audit.KindProcessing] == 0 {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestParallelRightsMatchSerial runs the cross-record rights at several
// worker widths and checks every report is identical to the serial
// engine's: the fan-out must not change what a subject receives, erases or
// sweeps — only how fast.
func TestParallelRightsMatchSerial(t *testing.T) {
	subjects := []string{"p-ada", "p-bea", "p-cyd", "p-dee", "p-eli"}
	seed := func(t *testing.T) *rig {
		r := newRig(t)
		for i, subject := range subjects {
			for j := 0; j < 3; j++ {
				r.seedUser(t, subject, subject+"-rec", int64(1960+i*3+j))
			}
		}
		return r
	}

	// Access: serial data sections are the reference.
	serial := seed(t)
	serial.ps.SetDefaultWorkers(1)
	wantData := make([]string, len(subjects))
	for i, subject := range subjects {
		rep, err := serial.engine.Access(subject)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(rep.Data)
		if err != nil {
			t.Fatal(err)
		}
		wantData[i] = string(raw)
	}
	par := seed(t)
	par.ps.SetDefaultWorkers(4)
	reps, err := par.engine.AccessBatch(subjects)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(subjects) {
		t.Fatalf("AccessBatch returned %d reports, want %d", len(reps), len(subjects))
	}
	for i, rep := range reps {
		if rep.SubjectID != subjects[i] {
			t.Fatalf("report %d is for %s, want %s", i, rep.SubjectID, subjects[i])
		}
		raw, err := json.Marshal(rep.Data)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != wantData[i] {
			t.Errorf("parallel access data for %s diverged:\n got %s\nwant %s", subjects[i], raw, wantData[i])
		}
	}

	// Erase: parallel erasure tombstones exactly the subject's records.
	rep, err := par.engine.Erase(subjects[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Erased) != 3 {
		t.Fatalf("Erased = %v, want 3 pdids", rep.Erased)
	}
	for _, pdid := range rep.Erased {
		m, err := par.store.GetMembrane(par.tok, pdid)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Erased {
			t.Errorf("%s not tombstoned", pdid)
		}
	}

	// Consent withdrawal fans out but must land on every record.
	if err := par.engine.WithdrawConsent(subjects[1], "purpose3"); err != nil {
		t.Fatal(err)
	}
	pdids, err := par.store.ListBySubject(par.tok, subjects[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, pdid := range pdids {
		m, err := par.store.GetMembrane(par.tok, pdid)
		if err != nil {
			t.Fatal(err)
		}
		if g := m.Consents["purpose3"]; g.Kind != membrane.GrantNone {
			t.Errorf("%s purpose3 grant = %+v, want none", pdid, g)
		}
	}

	// Sweep: everything is expired after a year; both widths must agree.
	serial.clock.Advance(366 * 24 * time.Hour)
	par.clock.Advance(366 * 24 * time.Hour)
	wantSwept, err := serial.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	gotSwept, err := par.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	// The parallel rig already erased subjects[0]'s records (tombstones
	// still expire) — both sweeps must delete every seeded record.
	if len(wantSwept) != len(subjects)*3 || len(gotSwept) != len(wantSwept) {
		t.Fatalf("sweep sizes: serial %d, parallel %d, want %d", len(wantSwept), len(gotSwept), len(subjects)*3)
	}
	for i := range wantSwept {
		if wantSwept[i] != gotSwept[i] {
			t.Fatalf("sweep order diverged at %d: %s vs %s", i, wantSwept[i], gotSwept[i])
		}
	}
}

// TestAccessOverArchivedRecords pins cold-tier transparency at the rights
// layer: demoting a subject's records to the compressed archive changes
// nothing about what Access (GDPR Art. 15) returns, and Erase still kills
// every copy.
func TestAccessOverArchivedRecords(t *testing.T) {
	r := newRigWith(t, dbfs.Config{ColdAfter: time.Hour})
	pdid := r.seedUser(t, "chiraz", "Chiraz Benamor", 1990)

	r.clock.Advance(2 * time.Hour)
	n, err := r.store.RepackCold(r.tok, r.clock.Now())
	if err != nil {
		t.Fatalf("RepackCold: %v", err)
	}
	if n != 1 {
		t.Fatalf("RepackCold demoted %d, want the seeded record", n)
	}

	report, err := r.engine.Access("chiraz")
	if err != nil {
		t.Fatalf("Access over archived record: %v", err)
	}
	users := report.Data["user"]
	if len(users) != 1 || users[0].Fields["name"] != "Chiraz Benamor" {
		t.Fatalf("archived record missing from Access report: %+v", report.Data)
	}
	if st := r.store.Stats(); st.Promotions != 1 {
		t.Fatalf("Promotions = %d, want the Access read to promote once", st.Promotions)
	}

	// Erasure reaches the archived copy: the retained ciphertext no longer
	// decodes once the subject's keys are shredded.
	if _, err := r.engine.EraseRecord(pdid); err != nil {
		t.Fatalf("EraseRecord: %v", err)
	}
	parts, err := r.store.ColdRaw(r.tok, pdid)
	if err != nil {
		t.Fatalf("ColdRaw: %v", err)
	}
	if _, err := r.vault.Open(pdid, parts["data"]); !errors.Is(err, cryptoshred.ErrKeyDestroyed) {
		t.Fatalf("archived ciphertext still opens after erasure: %v", err)
	}
}
