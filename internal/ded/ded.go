// Package ded implements the Data Execution Domain, the third component of
// rgpdOS (§2): "Any F_pd function is always executed as an instance of the
// DED, an environment that ensures GDPR compliance on manipulated PD."
//
// A DED run follows the paper's eight named steps:
//
//	ded_type2req       translate the input PD/type reference into DBFS requests
//	ded_load_membrane  fetch the membranes of the involved PD first
//	ded_filter         keep only PD whose membrane approves the purpose
//	ded_load_data      fetch the data for the surviving PD
//	ded_execute        run the processing on the fetched data
//	ded_build_membrane wrap any generated PD in a membrane
//	ded_store          persist generated PD in DBFS
//	ded_return         return non-PD values and references to PD — never PD
//
// The view enforces the purpose (§3(4)): ded_load_data projects each record
// onto the fields its membrane grants and its purpose declares, and the
// function runs on that view under a seccomp-style sandbox profile. Reading
// or probing a field the purpose does not declare fails the run with
// ErrUndeclaredRead before any output exists, and the attempt is audited as
// a blocked alert; a declared field the grant hides reads as ErrFieldHidden
// and the run goes on.
//
// The view is the part of data-centric execution (Idea 2) that an
// in-process Go function allows. It cannot zeroize what the function saw:
// the function shares the DED's heap, so any copy it makes outlives the run
// until the garbage collector reclaims it, unscrubbed. A function confined
// to its own worker process is the version that can.
package ded

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/dbfs"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/purpose"
	"repro/internal/sandbox"
	"repro/internal/simclock"
)

// Sentinel errors.
var (
	// ErrNoTarget reports an invocation with neither a PD ref nor a type.
	ErrNoTarget = errors.New("ded: invocation has no PD reference or type")
	// ErrNotFunc reports an invocation whose implementation has no body.
	ErrNotFunc = errors.New("ded: implementation has no function body")
	// ErrFieldHidden re-exports the view violation for Ctx.Field callers:
	// the purpose declares the field, the record's grant hides it.
	ErrFieldHidden = dbfs.ErrFieldHidden
	// ErrUndeclaredRead reports a processing that read or probed a field
	// its purpose does not declare; the run fails with no output.
	ErrUndeclaredRead = errors.New("ded: processing touched a field its purpose does not declare")
	// ErrPDInOutput reports a processing returning raw PD in its non-PD
	// output slot (caught by the return-scrubbing check).
	ErrPDInOutput = errors.New("ded: processing attempted to return raw personal data")
	// ErrCrossSubject reports generated PD filed under a subject other
	// than its source's; the run stores none of its generated PD.
	ErrCrossSubject = errors.New("ded: generated personal data names another subject than its source")
)

// Output is what an F_pd^r function produces for one record.
type Output struct {
	// NonPD is a non-personal result handed back to the caller (counts,
	// booleans, aggregates). The DED scrubs it: if it matches a raw field
	// value of the record, the run fails with ErrPDInOutput.
	NonPD any
	// Generated, if non-nil, is a new piece of PD produced by the
	// processing; the DED wraps it in a membrane (ded_build_membrane),
	// stores it (ded_store) and returns only its reference.
	Generated *GeneratedPD
}

// GeneratedPD describes PD produced by a processing.
type GeneratedPD struct {
	TypeName  string
	SubjectID string
	Fields    dbfs.Record
}

// Ctx is the window an F_pd^r function gets onto one PD record: only the
// declared fields the grant exposes are reachable, touching an undeclared
// one fails the run, and all side effects must go through the sandboxed
// Env. A Ctx belongs to one call of the function.
type Ctx struct {
	env       *sandbox.Env
	clock     simclock.Clock
	pdid      string
	typeName  string
	subjectID string
	view      dbfs.Record
	declared  map[string]bool

	// undeclared is the first "type.field" touched outside the purpose's
	// reads; the DED fails the run on it even if the function swallowed
	// the error.
	undeclared string
}

// PDID identifies the record being processed.
func (c *Ctx) PDID() string { return c.pdid }

// SubjectID identifies the data subject.
func (c *Ctx) SubjectID() string { return c.subjectID }

// TypeName is the record's PD type.
func (c *Ctx) TypeName() string { return c.typeName }

// Env exposes the sandboxed effect surface.
func (c *Ctx) Env() *sandbox.Env { return c.env }

// Now returns the current instant, mediated as a gettime syscall (Listing 2
// needs current_year()).
func (c *Ctx) Now() (time.Time, error) {
	if err := c.env.Now(); err != nil {
		return time.Time{}, err
	}
	return c.clock.Now(), nil
}

// Has reports whether a declared field is visible under the granted view —
// Listing 2's "is age allowed to be seen?" check. Probing an undeclared
// field returns false and fails the run like a read would.
func (c *Ctx) Has(field string) bool {
	if !c.declared[field] {
		c.refuse(field)
		return false
	}
	_, ok := c.view[field]
	return ok
}

// Field returns a visible field's value. A field the purpose does not
// declare yields ErrUndeclaredRead (and fails the run); a declared field
// the grant hides yields ErrFieldHidden.
func (c *Ctx) Field(field string) (dbfs.Value, error) {
	if !c.declared[field] {
		return dbfs.Value{}, fmt.Errorf("%w: %s on %s", ErrUndeclaredRead, c.refuse(field), c.pdid)
	}
	v, ok := c.view[field]
	if !ok {
		return dbfs.Value{}, fmt.Errorf("%w: %q on %s", ErrFieldHidden, field, c.pdid)
	}
	return v, nil
}

// refuse records the first undeclared access and returns its reference.
func (c *Ctx) refuse(field string) string {
	ref := c.typeName + "." + field
	if c.undeclared == "" {
		c.undeclared = ref
	}
	return ref
}

// Func is the implementation half of a data processing. Exactly one of Fn
// (F_pd^r, developer-written) or WriteFn (F_pd^w, natively provided by
// rgpdOS) must be set.
type Func struct {
	// Name identifies the implementation.
	Name string
	// Purpose names the purpose this function implements; "every F_pd
	// function is the implementation of a unique data processing purpose".
	Purpose string
	// DeclaredReads lists the "type.field" references the implementation
	// statically declares; the PS checks them against the purpose at
	// registration. At run time the purpose's own reads bound the view.
	DeclaredReads []string
	// Fn is the read-only processing body.
	Fn func(*Ctx) (Output, error)
	// WriteFn is the state-mutating body used by built-in functions.
	WriteFn func(*WriteCtx) error
}

// Validate checks the function shape.
func (f *Func) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("%w: unnamed function", ErrNotFunc)
	}
	if (f.Fn == nil) == (f.WriteFn == nil) {
		return fmt.Errorf("%w: %q must set exactly one of Fn/WriteFn", ErrNotFunc, f.Name)
	}
	return nil
}

// Invocation is one ps_invoke request lowered to the DED.
type Invocation struct {
	// Purpose is the declared purpose being exercised.
	Purpose *purpose.Decl
	// Impl is the registered implementation.
	Impl *Func
	// PDRef targets one record; when empty, TypeName targets all records
	// of a type (ded_type2req expands it).
	PDRef    string
	TypeName string
	// SubjectFilter optionally restricts the expansion to one subject.
	SubjectFilter string
	// Params carries operator-supplied arguments to write builtins
	// (e.g. replacement field values for update).
	Params map[string]any
	// Maintenance marks runs executing a data-subject right or legal
	// obligation: the membrane's consent/TTL checks are bypassed (the
	// legal basis is the request itself), while identity checks remain.
	// The Processing Store sets it exactly for built-in processings.
	Maintenance bool
}

// StageTimings records wall-clock time per pipeline stage (measurement
// instrumentation read by the E2E ladder's ded.*_us rows; not simulation
// state).
type StageTimings struct {
	Type2Req      time.Duration
	LoadMembrane  time.Duration
	Filter        time.Duration
	LoadData      time.Duration
	Execute       time.Duration
	BuildMembrane time.Duration
	Store         time.Duration
	Return        time.Duration
}

// Total sums the stage timings.
func (st StageTimings) Total() time.Duration {
	return st.Type2Req + st.LoadMembrane + st.Filter + st.LoadData +
		st.Execute + st.BuildMembrane + st.Store + st.Return
}

// Result is what ded_return hands back: non-PD values and PD references
// only.
type Result struct {
	// Outputs collects the non-PD outputs of each processed record.
	Outputs []any
	// PDRefs references PD generated by the processing.
	PDRefs []string
	// Processed counts records that passed the filter and were executed.
	Processed int
	// Filtered counts records rejected by their membranes, by reason.
	Filtered map[string]int
	// Timings breaks the run down by pipeline stage.
	Timings StageTimings
}

// DED executes invocations against DBFS. It holds the CapDBFS token —
// enforcement rule 4: "DED is the only component that is able to access
// DBFS directly".
//
// A DED is safe for concurrent use: each Run keeps its views and contexts
// to itself, and DBFS serializes per-subject state behind subject-sharded
// locks, so invocations for distinct subjects execute in parallel (see
// RunBatch).
type DED struct {
	store *dbfs.Store
	tok   *lsm.Token
	log   *audit.Log
	clock simclock.Clock
}

// New wires a DED. The token must carry lsm.CapDBFS (minted by the kernel
// at boot).
func New(store *dbfs.Store, tok *lsm.Token, log *audit.Log, clock simclock.Clock) *DED {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &DED{store: store, tok: tok, log: log, clock: clock}
}

// Store exposes the underlying DBFS for components that legitimately run
// inside the DED's trust domain (the rights engine); external callers have
// no token and are rejected by DBFS anyway.
func (d *DED) Store() *dbfs.Store { return d.store }

// Token returns the DED's DBFS capability (needed by in-domain components).
func (d *DED) Token() *lsm.Token { return d.tok }

// expandTargets implements ded_type2req.
func (d *DED) expandTargets(inv Invocation) ([]string, error) {
	if inv.PDRef != "" {
		return []string{inv.PDRef}, nil
	}
	if inv.TypeName == "" {
		return nil, ErrNoTarget
	}
	if inv.SubjectFilter != "" {
		all, err := d.store.ListBySubject(d.tok, inv.SubjectFilter)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, pdid := range all {
			if ty, _, _, err := dbfs.SplitPDID(pdid); err == nil && ty == inv.TypeName {
				out = append(out, pdid)
			}
		}
		return out, nil
	}
	return d.store.ListByType(d.tok, inv.TypeName)
}

// decide applies the membrane decision, honoring maintenance mode.
func (d *DED) decide(m *membrane.Membrane, inv Invocation, now time.Time) (membrane.Grant, error) {
	if inv.Maintenance {
		// Rights execution: the membrane's consent matrix does not gate a
		// legal obligation, but identity still must match.
		return membrane.Grant{Kind: membrane.GrantAll}, nil
	}
	return m.Decide(inv.Purpose.Name, now)
}

// buildMembrane implements ded_build_membrane for generated PD: derived
// origin, inherited consents, TTL and sensitivity from the source membrane
// (the conservative policy: derived data is no more permissive than its
// source), and CopyOf set to the source's family root, so the record is
// erased with its source.
func (d *DED) buildMembrane(g *GeneratedPD, src *membrane.Membrane, now time.Time) *membrane.Membrane {
	gm := membrane.New("", g.TypeName, g.SubjectID) // identity fixed by Insert
	gm.PDID = "pending"                             // placeholder; Insert overrides
	gm.Origin = membrane.OriginDerived
	gm.CopyOf = src.Root()
	gm.Sensitivity = src.Sensitivity
	gm.TTL = src.TTL
	gm.CreatedAt = now
	for p, grant := range src.Consents {
		gm.Consents[p] = grant
	}
	return gm
}

// scrubOutput is the ded_return guard: a non-PD output that equals a raw
// string field value of the processed view is treated as attempted PD
// leakage. (Heuristic, like any taint check; the paper's stronger answer is
// the F_npd/F_pd split itself.)
func scrubOutput(out any, view dbfs.Record) error {
	s, ok := out.(string)
	if !ok || s == "" {
		return nil
	}
	for name, v := range view {
		if v.Type == dbfs.TypeString && v.S == s {
			return fmt.Errorf("%w: output equals field %q", ErrPDInOutput, name)
		}
	}
	return nil
}

func filterReason(err error) string {
	switch {
	case errors.Is(err, membrane.ErrErased):
		return "erased"
	case errors.Is(err, membrane.ErrRestricted):
		return "restricted"
	case errors.Is(err, membrane.ErrExpired):
		return "expired"
	case errors.Is(err, membrane.ErrConsentDenied):
		return "consent-denied"
	default:
		return "other"
	}
}

// candidate pairs a pdid with its loaded membrane (post ded_load_membrane).
type candidate struct {
	pdid string
	m    *membrane.Membrane
}

// admitted is a candidate that passed ded_filter, with its granted view.
type admitted struct {
	pdid  string
	m     *membrane.Membrane
	grant membrane.Grant
}

// loaded is an admitted record with its view-projected data.
type loaded struct {
	admitted
	view dbfs.Record
}

// schemaName picks the schema to project with: the invocation type, or the
// type of the first admitted record for single-PD invocations.
func schemaName(inv Invocation, pass []admitted) string {
	if inv.TypeName != "" {
		return inv.TypeName
	}
	if len(pass) > 0 {
		return pass[0].m.TypeName
	}
	if ty, _, _, err := dbfs.SplitPDID(inv.PDRef); err == nil {
		return ty
	}
	return ""
}
