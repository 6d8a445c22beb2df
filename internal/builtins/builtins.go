// Package builtins provides the F_pd^w functions that rgpdOS supplies
// natively (§2): update, delete (erasure), copy, and acquisition, plus the
// consent and restriction mutators the rights engine drives. "F_pd^w
// functions are natively provided by rgpdOS (they are built-in) ... built-in
// functions ensure that every PD is correctly wrapped, that is it always
// includes a membrane."
//
// Each builtin is an ordinary Processing Store registration — a purpose
// declaration (legal-obligation basis: these operations execute data-subject
// rights and retention duties, not operator interests) paired with a WriteFn
// executed inside the DED. Builtins therefore enjoy no special path around
// the enforcement architecture; they differ from operator processings only
// in being pre-registered and in running in maintenance mode, which the
// Processing Store grants to every builtin registration and to nothing
// else.
package builtins

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/collect"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/membrane"
	"repro/internal/ps"
	"repro/internal/purpose"
)

// Reserved names of the built-in processings.
const (
	UpdateName   = "__builtin_update"
	EraseName    = "__builtin_erase"
	DeleteName   = "__builtin_delete"
	CopyName     = "__builtin_copy"
	ConsentName  = "__builtin_consent"
	RestrictName = "__builtin_restrict"
	AcquireName  = "__builtin_acquire"
)

// Param keys understood by the builtins.
const (
	// ParamFields carries a dbfs.Record of replacement values (update).
	ParamFields = "fields"
	// ParamPurpose names the purpose whose consent is being changed.
	ParamPurpose = "purpose"
	// ParamGrant carries a membrane.Grant (consent). Absent means
	// withdraw.
	ParamGrant = "grant"
	// ParamRestricted carries the bool for the restriction builtin.
	ParamRestricted = "restricted"
)

// ErrBadParams reports missing or mistyped builtin parameters.
var ErrBadParams = errors.New("builtins: bad parameters")

// Register installs every builtin into the Processing Store.
func Register(store *ps.Store) error {
	for _, b := range []struct {
		decl *purpose.Decl
		impl *ded.Func
	}{
		{updateDecl(), updateImpl()},
		{eraseDecl(), eraseImpl()},
		{deleteDecl(), deleteImpl()},
		{copyDecl(), copyImpl()},
		{consentDecl(), consentImpl()},
		{restrictDecl(), restrictImpl()},
	} {
		if err := store.Register(b.decl, b.impl, true); err != nil {
			return fmt.Errorf("builtins: register %s: %w", b.decl.Name, err)
		}
	}
	return nil
}

func updateDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        UpdateName,
		Description: "Rectify stored personal data at the subject's or operator's request (GDPR Art. 16)",
		Basis:       purpose.BasisLegalObligation,
	}
}

func updateImpl() *ded.Func {
	return &ded.Func{
		Name:    "update",
		Purpose: UpdateName,
		WriteFn: func(w *ded.WriteCtx) error {
			raw, ok := w.Params()[ParamFields]
			if !ok {
				return fmt.Errorf("%w: update needs %q", ErrBadParams, ParamFields)
			}
			fields, ok := raw.(dbfs.Record)
			if !ok {
				return fmt.Errorf("%w: %q must be a dbfs.Record", ErrBadParams, ParamFields)
			}
			rec, err := w.Record()
			if err != nil {
				return err
			}
			for k, v := range fields {
				rec[k] = v
			}
			return w.Update(rec)
		},
	}
}

func eraseDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        EraseName,
		Description: "Erase personal data with escrow to the authorities (GDPR Art. 17, right to be forgotten)",
		Basis:       purpose.BasisLegalObligation,
	}
}

func eraseImpl() *ded.Func {
	return &ded.Func{
		Name:    "erase",
		Purpose: EraseName,
		WriteFn: func(w *ded.WriteCtx) error {
			_, err := w.Erase()
			return err
		},
	}
}

func deleteDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        DeleteName,
		Description: "Physically remove personal data whose retention period elapsed (storage limitation)",
		Basis:       purpose.BasisLegalObligation,
	}
}

func deleteImpl() *ded.Func {
	return &ded.Func{
		Name:    "delete",
		Purpose: DeleteName,
		WriteFn: func(w *ded.WriteCtx) error {
			return w.Delete()
		},
	}
}

func copyDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        CopyName,
		Description: "Copy personal data with membrane consistency across all copies",
		Basis:       purpose.BasisLegalObligation,
	}
}

func copyImpl() *ded.Func {
	return &ded.Func{
		Name:    "copy",
		Purpose: CopyName,
		WriteFn: func(w *ded.WriteCtx) error {
			_, err := w.Copy()
			return err
		},
	}
}

func consentDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        ConsentName,
		Description: "Record or withdraw a subject's consent decision (GDPR Art. 7)",
		Basis:       purpose.BasisLegalObligation,
	}
}

func consentImpl() *ded.Func {
	return &ded.Func{
		Name:    "consent",
		Purpose: ConsentName,
		WriteFn: func(w *ded.WriteCtx) error {
			pRaw, ok := w.Params()[ParamPurpose]
			if !ok {
				return fmt.Errorf("%w: consent needs %q", ErrBadParams, ParamPurpose)
			}
			purposeName, ok := pRaw.(string)
			if !ok || purposeName == "" {
				return fmt.Errorf("%w: %q must be a non-empty string", ErrBadParams, ParamPurpose)
			}
			gRaw, ok := w.Params()[ParamGrant]
			if !ok {
				return w.WithdrawConsent(purposeName)
			}
			grant, ok := gRaw.(membrane.Grant)
			if !ok {
				return fmt.Errorf("%w: %q must be a membrane.Grant", ErrBadParams, ParamGrant)
			}
			return w.SetConsent(purposeName, grant)
		},
	}
}

func restrictDecl() *purpose.Decl {
	return &purpose.Decl{
		Name:        RestrictName,
		Description: "Toggle the restriction-of-processing mark (GDPR Art. 18)",
		Basis:       purpose.BasisLegalObligation,
	}
}

func restrictImpl() *ded.Func {
	return &ded.Func{
		Name:    "restrict",
		Purpose: RestrictName,
		WriteFn: func(w *ded.WriteCtx) error {
			raw, ok := w.Params()[ParamRestricted]
			if !ok {
				return fmt.Errorf("%w: restrict needs %q", ErrBadParams, ParamRestricted)
			}
			restricted, ok := raw.(bool)
			if !ok {
				return fmt.Errorf("%w: %q must be a bool", ErrBadParams, ParamRestricted)
			}
			return w.SetRestricted(restricted)
		},
	}
}

// Acquirer is the acquisition builtin: it pulls subject data from the
// registered collection interface and inserts it into DBFS with a complete
// membrane — provenance from the source, consents/TTL/sensitivity from the
// type's declaration. "rgpdOS requests the needed metadata to fill the
// membrane with at data collection time... each entry in DBFS is always
// correctly wrapped with its membrane" (§2).
//
// It runs inside the DED trust domain (it holds no token of its own; it
// borrows the DED's), and it is the AcquireFunc the Processing Store calls
// for ps_invoke's InitCollect flag.
type Acquirer struct {
	d   *ded.DED
	reg *collect.Registry
	log *audit.Log
}

// NewAcquirer wires the acquisition builtin.
func NewAcquirer(d *ded.DED, reg *collect.Registry, log *audit.Log) *Acquirer {
	return &Acquirer{d: d, reg: reg, log: log}
}

// Acquire collects data for the given subjects of typeName through method
// and stores each record with its membrane. It returns how many records
// entered DBFS; subjects with no pending data are skipped, not fatal.
func (a *Acquirer) Acquire(typeName, method string, subjects []string) (int, error) {
	src, err := a.reg.Lookup(typeName, method)
	if err != nil {
		return 0, err
	}
	store, tok := a.d.Store(), a.d.Token()
	sch, err := store.SchemaOf(tok, typeName)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, subject := range subjects {
		rec, origin, err := src.Collect(subject)
		if errors.Is(err, collect.ErrNoData) {
			continue
		}
		if err != nil {
			return n, fmt.Errorf("builtins: acquire %s/%s: %w", typeName, subject, err)
		}
		// CreatedAt is left zero; Insert stamps it with the kernel clock.
		m := sch.DefaultMembrane("pending", subject, time.Time{})
		m.Origin = origin
		pdid, err := store.Insert(tok, typeName, subject, rec, m)
		if err != nil {
			return n, fmt.Errorf("builtins: acquire insert %s/%s: %w", typeName, subject, err)
		}
		a.log.Append(audit.KindCollection, AcquireName, pdid, subject, "ok",
			"method="+method+" ref="+src.Ref()+" origin="+origin.String())
		n++
	}
	return n, nil
}
