package ded

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/dbfs"
	"repro/internal/membrane"
)

// WriteCtx is the controlled mutation surface handed to F_pd^w functions —
// the built-ins natively provided by rgpdOS (update, delete, copy,
// acquisition). Each instance is bound to one admitted record; every
// mutation keeps the membrane invariant (rule 3) and flows through the
// DED's DBFS token, so built-ins enjoy no path around the enforcement
// architecture.
type WriteCtx struct {
	d    *DED
	inv  *Invocation
	pdid string
	m    *membrane.Membrane

	generated []string
}

// Params returns the operator-supplied arguments of the invocation.
func (w *WriteCtx) Params() map[string]any { return w.inv.Params }

// Record loads the record's current fields.
func (w *WriteCtx) Record() (dbfs.Record, error) {
	return w.d.store.GetRecord(w.d.tok, w.pdid)
}

// Update replaces the record's fields (the update builtin; also the
// rectification right).
func (w *WriteCtx) Update(rec dbfs.Record) error {
	if err := w.d.store.Update(w.d.tok, w.pdid, rec); err != nil {
		return err
	}
	w.d.log.Append(audit.KindProcessing, w.inv.Purpose.Name, w.pdid, w.m.SubjectID, "ok", "update")
	return nil
}

// Copy duplicates the record for the same subject. The copy's membrane is
// derived with CloneForCopy, whose durable CopyOf link names the family
// root, so consent changes and erasures reach every copy — the paper's
// membrane consistency obligation for the copy builtin.
func (w *WriteCtx) Copy() (string, error) {
	rec, err := w.Record()
	if err != nil {
		return "", err
	}
	cm := w.m.CloneForCopy("pending") // identity fixed by Insert
	ref, err := w.d.store.Insert(w.d.tok, w.m.TypeName, w.m.SubjectID, rec, cm)
	if err != nil {
		return "", fmt.Errorf("ded: copy %s: %w", w.pdid, err)
	}
	w.generated = append(w.generated, ref)
	w.d.log.Append(audit.KindProcessing, w.inv.Purpose.Name, w.pdid, w.m.SubjectID, "ok", "copy -> "+ref)
	return ref, nil
}

// Erase crypto-shreds the record with authority escrow and tombstones its
// membrane (the delete builtin implementing the right to be forgotten, §4).
func (w *WriteCtx) Erase() (string, error) {
	ref, err := w.d.store.Erase(w.d.tok, w.pdid)
	if err != nil {
		return "", err
	}
	w.d.log.Append(audit.KindErasure, w.inv.Purpose.Name, w.pdid, w.m.SubjectID, "ok", "escrow="+ref)
	return ref, nil
}

// Delete physically removes the record (retention-expired cleanup).
func (w *WriteCtx) Delete() error {
	if err := w.d.store.Delete(w.d.tok, w.pdid); err != nil {
		return err
	}
	w.d.log.Append(audit.KindErasure, w.inv.Purpose.Name, w.pdid, w.m.SubjectID, "ok", "deleted")
	return nil
}

// SetConsent records a consent decision on the membrane. The mutation is
// an atomic read-modify-write of the stored membrane, so concurrent
// consent changes on the same record compose instead of overwriting each
// other with stale snapshots.
func (w *WriteCtx) SetConsent(purposeName string, g membrane.Grant) error {
	m, err := w.d.store.MutateMembrane(w.d.tok, w.pdid, func(m *membrane.Membrane) error {
		m.SetConsent(purposeName, g)
		return nil
	})
	if err != nil {
		return err
	}
	w.m = m
	w.d.log.Append(audit.KindConsentChange, purposeName, w.pdid, w.m.SubjectID, "ok", "grant="+g.String())
	return nil
}

// WithdrawConsent revokes a purpose's grant (Art. 7(3)).
func (w *WriteCtx) WithdrawConsent(purposeName string) error {
	m, err := w.d.store.MutateMembrane(w.d.tok, w.pdid, func(m *membrane.Membrane) error {
		m.WithdrawConsent(purposeName)
		return nil
	})
	if err != nil {
		return err
	}
	w.m = m
	w.d.log.Append(audit.KindConsentChange, purposeName, w.pdid, w.m.SubjectID, "ok", "withdrawn")
	return nil
}

// SetRestricted toggles the Art. 18 restriction flag.
func (w *WriteCtx) SetRestricted(restricted bool) error {
	m, err := w.d.store.MutateMembrane(w.d.tok, w.pdid, func(m *membrane.Membrane) error {
		m.Restricted = restricted
		m.Version++
		return nil
	})
	if err != nil {
		return err
	}
	w.m = m
	w.d.log.Append(audit.KindConsentChange, w.inv.Purpose.Name, w.pdid, w.m.SubjectID, "ok",
		fmt.Sprintf("restricted=%t", restricted))
	return nil
}
