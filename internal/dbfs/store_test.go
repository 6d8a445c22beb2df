package dbfs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/simclock"
)

// testEnv bundles a mounted DBFS with its guard, vault and DED token.
type testEnv struct {
	dev   *blockdev.Mem
	fs    *inode.FS
	guard *lsm.Guard
	vault *cryptoshred.Vault
	auth  *cryptoshred.Authority
	clock *simclock.Sim
	store *Store
	tok   *lsm.Token
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	return newEnvWith(t, Config{})
}

// newEnvWith is newEnv with a store created from cfg.
func newEnvWith(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	dev := blockdev.MustMem(4096)
	clock := simclock.NewSim(simclock.Epoch)
	fs, err := inode.Format(dev, inode.Options{NInodes: 2048, JournalBlocks: 128, Clock: clock})
	if err != nil {
		t.Fatalf("inode.Format: %v", err)
	}
	auth, err := cryptoshred.NewAuthority(1024)
	if err != nil {
		t.Fatalf("NewAuthority: %v", err)
	}
	guard := lsm.NewGuard()
	vault := cryptoshred.NewVault(auth.PublicKey())
	store, err := Create([]*inode.FS{fs}, guard, vault, clock, cfg)
	if err != nil {
		t.Fatalf("dbfs.Create: %v", err)
	}
	return &testEnv{
		dev:   dev,
		fs:    fs,
		guard: guard,
		vault: vault,
		auth:  auth,
		clock: clock,
		store: store,
		tok:   guard.Mint("ded", lsm.CapDBFS),
	}
}

func (e *testEnv) mustCreateUser(t *testing.T) {
	t.Helper()
	if err := e.store.CreateType(e.tok, userSchema()); err != nil {
		t.Fatalf("CreateType: %v", err)
	}
}

func aliceRecord() Record {
	return Record{
		"name":              S("Alice Martin"),
		"pwd":               S("correct-horse"),
		"year_of_birthdate": I(1990),
	}
}

func TestCreateTypeAndInsert(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)

	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if pdid != "user/alice/1" {
		t.Fatalf("pdid = %q", pdid)
	}
	rec, err := e.store.GetRecord(e.tok, pdid)
	if err != nil {
		t.Fatalf("GetRecord: %v", err)
	}
	if rec["name"].S != "Alice Martin" || rec["pwd"].S != "correct-horse" || rec["year_of_birthdate"].I != 1990 {
		t.Fatalf("record = %v", rec)
	}
	m, err := e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatalf("GetMembrane: %v", err)
	}
	if m.PDID != pdid || m.TypeName != "user" || m.SubjectID != "alice" {
		t.Fatalf("membrane identity = %+v", m)
	}
	if g := m.Consents["purpose3"]; g.View != "v_ano" {
		t.Fatalf("default consent not applied: %+v", m.Consents)
	}
}

func TestInsertWithoutMembraneGetsDefault(t *testing.T) {
	// Enforcement rule 3: every PD stored in DBFS has a membrane, even when
	// the caller supplies none.
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "bob", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatalf("membrane missing: %v", err)
	}
	if m.TTL == 0 || len(m.Consents) != 3 {
		t.Fatalf("default membrane incomplete: %+v", m)
	}
}

func TestInsertCustomMembraneIdentityOverridden(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	custom := membrane.New("spoofed/id/9", "spoof", "mallory")
	custom.SetConsent("purpose1", membrane.Grant{Kind: membrane.GrantAll})
	pdid, err := e.store.Insert(e.tok, "user", "carol", aliceRecord(), custom)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	// DBFS must fix up identity so a membrane can never point elsewhere.
	if m.PDID != pdid || m.TypeName != "user" || m.SubjectID != "carol" {
		t.Fatalf("identity not enforced: %+v", m)
	}
}

func TestTokenEnforcement(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// No token.
	if _, err := e.store.GetRecord(nil, pdid); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("nil token err = %v", err)
	}
	// Token without CapDBFS.
	weak := e.guard.Mint("app", lsm.CapProcessingStore)
	if _, err := e.store.GetRecord(weak, pdid); !errors.Is(err, lsm.ErrMissingCapability) {
		t.Fatalf("weak token err = %v", err)
	}
	// Every public entry point is guarded.
	if err := e.store.CreateType(nil, userSchema()); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("CreateType unguarded: %v", err)
	}
	if _, err := e.store.Insert(nil, "user", "x", nil, nil); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("Insert unguarded: %v", err)
	}
	if _, err := e.store.GetMembrane(nil, pdid); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("GetMembrane unguarded: %v", err)
	}
	if _, err := e.store.MutateMembrane(nil, pdid, func(*membrane.Membrane) error { return nil }); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("MutateMembrane unguarded: %v", err)
	}
	if err := e.store.Update(nil, pdid, nil); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("Update unguarded: %v", err)
	}
	if _, err := e.store.Erase(nil, pdid); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("Erase unguarded: %v", err)
	}
	if err := e.store.Delete(nil, pdid); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("Delete unguarded: %v", err)
	}
	if _, err := e.store.Subjects(nil); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("Subjects unguarded: %v", err)
	}
	if _, err := e.store.ListBySubject(nil, "alice"); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("ListBySubject unguarded: %v", err)
	}
	if _, err := e.store.ListByType(nil, "user"); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("ListByType unguarded: %v", err)
	}
	if _, err := e.store.SchemaOf(nil, "user"); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("SchemaOf unguarded: %v", err)
	}
	if _, err := e.store.RawCiphertext(nil, pdid); !errors.Is(err, lsm.ErrNoToken) {
		t.Fatalf("RawCiphertext unguarded: %v", err)
	}
	if e.guard.DenialCount() == 0 {
		t.Fatal("denials not recorded")
	}
}

func TestNoPlaintextOnDevice(t *testing.T) {
	// The heart of the rgpdOS storage design: with per-PD encryption below
	// DBFS, neither home blocks nor the journal ever hold plaintext PD.
	e := newEnv(t)
	e.mustCreateUser(t)
	if _, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil); err != nil {
		t.Fatal(err)
	}
	for _, secret := range [][]byte{[]byte("Alice Martin"), []byte("correct-horse")} {
		if hits := blockdev.FindResidue(e.dev, secret); len(hits) != 0 {
			t.Fatalf("plaintext %q found on device blocks %v", secret, hits)
		}
	}
}

func TestUpdateRecord(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := aliceRecord()
	rec["year_of_birthdate"] = I(1991) // rectification
	rec["pwd"] = S("new-password")
	if err := e.store.Update(e.tok, pdid, rec); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, err := e.store.GetRecord(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	if got["year_of_birthdate"].I != 1991 || got["pwd"].S != "new-password" {
		t.Fatalf("after update: %v", got)
	}
}

func TestEraseCryptoShreds(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.store.Erase(e.tok, pdid)
	if err != nil {
		t.Fatalf("Erase: %v", err)
	}
	if ref == "" {
		t.Fatal("no escrow ref")
	}
	// Operator can no longer read the data.
	if _, err := e.store.GetRecord(e.tok, pdid); err == nil {
		t.Fatal("GetRecord succeeded after erasure")
	}
	m, err := e.store.GetMembrane(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Erased || m.EscrowRef != ref {
		t.Fatalf("membrane not tombstoned: %+v", m)
	}
	// Idempotent: second erase returns the same ref.
	ref2, err := e.store.Erase(e.tok, pdid)
	if err != nil || ref2 != ref {
		t.Fatalf("second Erase = %q, %v", ref2, err)
	}
	// The authority can still recover via escrow (the §4 model).
	ct, err := e.store.RawCiphertext(e.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	escrow, err := e.vault.Escrow(ref)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := e.auth.Recover(escrow, ct)
	if err != nil {
		t.Fatalf("authority Recover: %v", err)
	}
	if !bytes.Contains(pt, []byte("Alice Martin")) {
		t.Fatal("authority recovered wrong data")
	}
}

func TestDeleteRemovesRecord(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.store.Delete(e.tok, pdid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := e.store.GetRecord(e.tok, pdid); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("GetRecord after delete err = %v", err)
	}
	if _, err := e.store.GetMembrane(e.tok, pdid); !errors.Is(err, ErrNoRecord) && !errors.Is(err, ErrNoMembrane) {
		t.Fatalf("GetMembrane after delete err = %v", err)
	}
	// No readable residue: blocks hold only ciphertext whose key is gone.
	for _, secret := range [][]byte{[]byte("Alice Martin"), []byte("correct-horse")} {
		if hits := blockdev.FindResidue(e.dev, secret); len(hits) != 0 {
			t.Fatalf("plaintext residue after delete: %v", hits)
		}
	}
	ids, err := e.store.ListBySubject(e.tok, "alice")
	if err != nil || len(ids) != 0 {
		t.Fatalf("ListBySubject after delete = %v, %v", ids, err)
	}
}

func TestListings(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	for _, subj := range []string{"alice", "bob"} {
		for i := 0; i < 2; i++ {
			if _, err := e.store.Insert(e.tok, "user", subj, aliceRecord(), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	subs, err := e.store.Subjects(e.tok)
	if err != nil || len(subs) != 2 || subs[0] != "alice" || subs[1] != "bob" {
		t.Fatalf("Subjects = %v, %v", subs, err)
	}
	byAlice, err := e.store.ListBySubject(e.tok, "alice")
	if err != nil || len(byAlice) != 2 {
		t.Fatalf("ListBySubject = %v, %v", byAlice, err)
	}
	byType, err := e.store.ListByType(e.tok, "user")
	if err != nil || len(byType) != 4 {
		t.Fatalf("ListByType = %v, %v", byType, err)
	}
	if _, err := e.store.ListByType(e.tok, "ghost"); !errors.Is(err, ErrNoType) {
		t.Fatalf("ListByType ghost err = %v", err)
	}
	if got, err := e.store.ListBySubject(e.tok, "nobody"); err != nil || got != nil {
		t.Fatalf("ListBySubject nobody = %v, %v", got, err)
	}
}

func TestDuplicateType(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	if err := e.store.CreateType(e.tok, userSchema()); !errors.Is(err, ErrTypeExists) {
		t.Fatalf("duplicate CreateType err = %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	if _, err := e.store.Insert(e.tok, "ghost", "a", aliceRecord(), nil); !errors.Is(err, ErrNoType) {
		t.Fatalf("unknown type err = %v", err)
	}
	if _, err := e.store.Insert(e.tok, "user", "", aliceRecord(), nil); !errors.Is(err, ErrBadPDID) {
		t.Fatalf("empty subject err = %v", err)
	}
	if _, err := e.store.Insert(e.tok, "user", "a/b", aliceRecord(), nil); !errors.Is(err, ErrBadPDID) {
		t.Fatalf("slash subject err = %v", err)
	}
	if _, err := e.store.Insert(e.tok, "user", "a", Record{"nope": S("x")}, nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad record err = %v", err)
	}
}

func TestSplitPDID(t *testing.T) {
	ty, subj, n, err := SplitPDID("user/alice/42")
	if err != nil || ty != "user" || subj != "alice" || n != 42 {
		t.Fatalf("SplitPDID = %q %q %d %v", ty, subj, n, err)
	}
	for _, bad := range []string{"", "user", "user/alice", "user/alice/x", "/alice/1", "user//1", "a/b/c/d"} {
		if _, _, _, err := SplitPDID(bad); !errors.Is(err, ErrBadPDID) {
			t.Fatalf("SplitPDID(%q) err = %v, want ErrBadPDID", bad, err)
		}
	}
}

func TestGetUnknownRecord(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	if _, err := e.store.GetRecord(e.tok, "user/alice/99"); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("unknown record err = %v", err)
	}
	if _, err := e.store.GetRecord(e.tok, "bad"); !errors.Is(err, ErrBadPDID) {
		t.Fatalf("bad pdid err = %v", err)
	}
}

func TestOpenReloadsState(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Remount the inode FS and reopen DBFS with the same vault (keys are
	// kernel state, not disk state).
	fs2, err := inode.Mount(e.dev, e.clock)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := Open([]*inode.FS{fs2}, e.guard, e.vault, e.clock, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec, err := store2.GetRecord(e.tok, pdid)
	if err != nil {
		t.Fatalf("GetRecord after reopen: %v", err)
	}
	if rec["name"].S != "Alice Martin" {
		t.Fatalf("record after reopen = %v", rec)
	}
	// The sequence continues past the persisted watermark, never reusing
	// an id (leasing may skip some; see nextSeq).
	pdid2, err := store2.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rec1, err := SplitPDID(pdid)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rec2, err := SplitPDID(pdid2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2 <= rec1 {
		t.Fatalf("pdid after reopen = %q, want record number > %d", pdid2, rec1)
	}
}

func TestStatsCounters(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, _ := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	_, _ = e.store.GetRecord(e.tok, pdid)
	_, _ = e.store.GetMembrane(e.tok, pdid)
	_ = e.store.Update(e.tok, pdid, aliceRecord())
	s := e.store.Stats()
	if s.TypesCreated != 1 || s.Inserts != 1 || s.DataReads != 1 || s.MembraneReads != 1 || s.Updates != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBlockCacheCountersSurface proves the per-instance block buffer cache
// counters flow through to dbfs.Stats: a formatted FS defaults to a cache,
// and any record traffic must register hits and write-backs.
func TestBlockCacheCountersSurface(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	pdid, err := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := e.store.GetRecord(e.tok, pdid); err != nil {
		t.Fatalf("GetRecord: %v", err)
	}
	s := e.store.Stats()
	if s.BlockCacheHits == 0 {
		t.Fatalf("BlockCacheHits = 0; block cache not wired into stats: %+v", s)
	}
	if s.BlockWritebacks == 0 {
		t.Fatalf("BlockWritebacks = 0 after journaled inserts: %+v", s)
	}
}

func TestPerSubjectIsolation(t *testing.T) {
	// Records of different subjects live in different inode subtrees and
	// under different keys: erasing alice leaves bob intact.
	e := newEnv(t)
	e.mustCreateUser(t)
	alicePD, _ := e.store.Insert(e.tok, "user", "alice", aliceRecord(), nil)
	bobRec := aliceRecord()
	bobRec["name"] = S("Bob Stone")
	bobPD, _ := e.store.Insert(e.tok, "user", "bob", bobRec, nil)
	if _, err := e.store.Erase(e.tok, alicePD); err != nil {
		t.Fatal(err)
	}
	got, err := e.store.GetRecord(e.tok, bobPD)
	if err != nil {
		t.Fatalf("bob unreadable after alice erasure: %v", err)
	}
	if got["name"].S != "Bob Stone" {
		t.Fatalf("bob record = %v", got)
	}
}

// TestOpenNamesBadSeqLength: a type's seq file holds its 8-byte watermark;
// Open refuses one of another length and says how long it is.
func TestOpenNamesBadSeqLength(t *testing.T) {
	e := newEnv(t)
	e.mustCreateUser(t)
	tb, err := e.fs.Lookup(e.store.schemaRoot, "user")
	if err != nil {
		t.Fatal(err)
	}
	seqIno, err := e.fs.Lookup(tb, seqFileName)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.fs.Do([]inode.Ino{seqIno}, func(op *inode.Op) error {
		return op.Replace(seqIno, make([]byte, 7))
	}); err != nil {
		t.Fatal(err)
	}
	fs2, err := inode.Mount(e.dev, e.clock)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open([]*inode.FS{fs2}, e.guard, e.vault, e.clock, Config{})
	if err == nil || !strings.Contains(err.Error(), `"user" seq: 7 bytes, want 8`) {
		t.Fatalf("Open over a 7-byte seq file: %v", err)
	}
}
