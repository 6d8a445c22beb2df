package rights

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/builtins"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
)

// tombstone returns the encoded bytes of pdid's stored membrane.
func (r *rig) tombstone(t *testing.T, pdid string) []byte {
	t.Helper()
	m, err := r.store.GetMembrane(r.tok, pdid)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWritesToErasedRecordFail: an erased record's membrane is final. A
// restriction of it fails with membrane.ErrErased and writes nothing, and a
// consent wave over its subject skips it.
func TestWritesToErasedRecordFail(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "ivy", "Ivy", 1991)
	if _, err := r.engine.Erase("ivy"); err != nil {
		t.Fatal(err)
	}
	before := r.tombstone(t, pdid)
	writes := r.store.Stats().MembraneWrites
	if err := r.engine.Restrict(pdid, true); !errors.Is(err, membrane.ErrErased) {
		t.Fatalf("Restrict(erased) err = %v, want membrane.ErrErased", err)
	}
	if err := r.engine.WithdrawConsent("ivy", "purpose3"); err != nil {
		t.Fatalf("WithdrawConsent over an erased subject: %v", err)
	}
	if err := r.engine.Rectify(pdid, dbfs.Record{"name": dbfs.S("Ivy B.")}); err == nil {
		t.Fatal("Rectify succeeded on an erased record")
	}
	if got := r.store.Stats().MembraneWrites - writes; got != 0 {
		t.Fatalf("%d membrane writes to an erased subject, want 0", got)
	}
	if after := r.tombstone(t, pdid); !bytes.Equal(after, before) {
		t.Fatal("tombstone bytes changed after writes to the erased record")
	}
}

// TestEraseRecordIsIdempotent: erasing an erased record finds it among
// the erased records and answers as the first erasure did.
func TestEraseRecordIsIdempotent(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "jack", "Jack", 1980)
	keep := r.seedUser(t, "jack", "Jack", 1980)
	for i := 0; i < 2; i++ {
		got, err := r.engine.EraseRecord(pdid)
		if err != nil {
			t.Fatalf("EraseRecord #%d: %v", i+1, err)
		}
		if !slices.Equal(got, []string{pdid}) {
			t.Fatalf("EraseRecord #%d = %v, want [%s]", i+1, got, pdid)
		}
	}
	live, erased, err := r.store.ListErased(r.tok, "jack")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(live, []string{keep}) || !slices.Equal(erased, []string{pdid}) {
		t.Fatalf("ListErased = %v, %v; want [%s], [%s]", live, erased, keep, pdid)
	}
	if _, err := r.engine.EraseRecord("user/jack/999"); !errors.Is(err, dbfs.ErrNoRecord) {
		t.Fatalf("EraseRecord(unknown) err = %v, want dbfs.ErrNoRecord", err)
	}
}

// TestErasedRecordSweptAtTTL: an erased record keeps its retention, so the
// sweep deletes its tombstone and ciphertext once the TTL has run out.
func TestErasedRecordSweptAtTTL(t *testing.T) {
	r := newRig(t)
	pdid := r.seedUser(t, "kate", "Kate", 1975)
	if _, err := r.engine.Erase("kate"); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(400 * 24 * time.Hour) // the user type's TTL is one year
	deleted, err := r.engine.SweepExpired()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(deleted, []string{pdid}) {
		t.Fatalf("sweep = %v, want [%s]", deleted, pdid)
	}
	live, erased, err := r.store.ListErased(r.tok, "kate")
	if err != nil {
		t.Fatal(err)
	}
	if len(live)+len(erased) != 0 {
		t.Fatalf("after the sweep ListErased = %v, %v; want both empty", live, erased)
	}
	if _, err := r.store.RawCiphertext(r.tok, pdid); !errors.Is(err, dbfs.ErrNoRecord) {
		t.Fatalf("RawCiphertext after the sweep err = %v, want dbfs.ErrNoRecord", err)
	}
}

// TestErasureHistoryCostsNothing runs k erase-and-reinsert cycles on one
// subject and counts what later ops on it touch: erased records are out of
// the listings, so a query loads one membrane, a consent withdrawal writes
// one and a subject erasure invokes the erase builtin once, whatever the
// subject's erasure history. The access report still names every erased
// record.
func TestErasureHistoryCostsNothing(t *testing.T) {
	const k = 400
	r := newRig(t)
	for i := 0; i < k; i++ {
		r.seedUser(t, "lena", "Lena", 1990)
		if _, err := r.engine.Erase("lena"); err != nil {
			t.Fatal(err)
		}
	}
	live := r.seedUser(t, "lena", "Lena", 1990)
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

	reads := r.store.Stats().MembraneReads
	res, err := r.ps.Invoke(ps.InvokeRequest{Processing: "purpose3", TypeName: "user", SubjectFilter: "lena"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.store.Stats().MembraneReads - reads; got != 1 || res.Processed != 1 {
		t.Fatalf("subject query loaded %d membranes and processed %d, want 1 and 1", got, res.Processed)
	}

	writes := r.store.Stats().MembraneWrites
	if err := r.engine.WithdrawConsent("lena", "purpose3"); err != nil {
		t.Fatal(err)
	}
	if got := r.store.Stats().MembraneWrites - writes; got != 1 {
		t.Fatalf("WithdrawConsent wrote %d membranes, want 1", got)
	}

	acc, err := r.engine.Access("lena")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(acc.Data["user"]); n != k+1 {
		t.Fatalf("access report lists %d records, want %d", n, k+1)
	}

	invokes := r.ps.Stats().Invocations
	rep, err := r.engine.Erase("lena")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ps.Stats().Invocations - invokes; got != 1 || !slices.Equal(rep.Erased, []string{live}) {
		t.Fatalf("Erase made %d %s invokes and erased %v, want 1 and [%s]", got, builtins.EraseName, rep.Erased, live)
	}
}
