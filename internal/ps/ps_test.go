package ps

import (
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/audit"
	"repro/internal/blockdev"
	"repro/internal/cryptoshred"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/inode"
	"repro/internal/lsm"
	"repro/internal/membrane"
	"repro/internal/purpose"
	"repro/internal/simclock"
)

type env struct {
	store *dbfs.Store
	log   *audit.Log
	clock *simclock.Sim
	ps    *Store
	tok   *lsm.Token
}

func newEnv(t *testing.T, acquire AcquireFunc) *env {
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
	d := ded.New(store, tok, log, clock)
	return &env{store: store, log: log, clock: clock, ps: New(d, log, acquire), tok: tok}
}

func userSchema() *dbfs.Schema {
	return &dbfs.Schema{
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
}

func (e *env) seed(t *testing.T) string {
	t.Helper()
	if err := e.store.CreateType(e.tok, userSchema()); err != nil {
		t.Fatal(err)
	}
	pdid, err := e.store.Insert(e.tok, "user", "alice", dbfs.Record{
		"name": dbfs.S("Alice"), "year_of_birthdate": dbfs.I(1990),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pdid
}

func decl3() *purpose.Decl {
	return &purpose.Decl{
		Name:        "purpose3",
		Description: "Compute the age of the input user",
		Basis:       purpose.BasisConsent,
		Reads:       []string{"user.year_of_birthdate"},
	}
}

func ageImpl() *ded.Func {
	return &ded.Func{
		Name:          "compute_age",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: 2023 - yob.I}, nil
		},
	}
}

func TestRegisterAndInvoke(t *testing.T) {
	e := newEnv(t, nil)
	e.seed(t)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Processed != 1 || res.Outputs[0].(int64) != 33 {
		t.Fatalf("result = %+v", res)
	}
	if e.ps.Invocations() != 1 {
		t.Fatalf("Invocations = %d", e.ps.Invocations())
	}
}

func TestRegisterRejectsNoPurpose(t *testing.T) {
	// "if the function has no specified purpose, it is rejected"
	e := newEnv(t, nil)
	if err := e.ps.Register(nil, ageImpl(), false); !errors.Is(err, ErrNoPurpose) {
		t.Fatalf("nil decl err = %v", err)
	}
	bad := &purpose.Decl{Name: "p"} // no description/basis
	if err := e.ps.Register(bad, ageImpl(), false); !errors.Is(err, ErrNoPurpose) {
		t.Fatalf("invalid decl err = %v", err)
	}
	impl := ageImpl()
	impl.Purpose = ""
	d := decl3()
	if err := e.ps.Register(d, impl, false); !errors.Is(err, ErrNoPurpose) {
		t.Fatalf("unclaimed impl err = %v", err)
	}
	impl2 := ageImpl()
	impl2.Purpose = "other"
	if err := e.ps.Register(decl3(), impl2, false); !errors.Is(err, ErrPurposeMismatch) {
		t.Fatalf("name mismatch err = %v", err)
	}
}

func TestRegisterMismatchRaisesAlert(t *testing.T) {
	// "if the specified purpose does not match with the corresponding
	// implementation, PS raises an alert that requires an explicit
	// sysadmin approval"
	e := newEnv(t, nil)
	e.seed(t)
	greedy := ageImpl()
	greedy.DeclaredReads = []string{"user.year_of_birthdate", "user.name"} // beyond the purpose
	err := e.ps.Register(decl3(), greedy, false)
	if !errors.Is(err, ErrPendingApproval) {
		t.Fatalf("Register err = %v, want ErrPendingApproval", err)
	}
	// Not invocable while pending.
	if _, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user"}); !errors.Is(err, ErrNotActive) {
		t.Fatalf("pending Invoke err = %v", err)
	}
	alerts := e.ps.PendingAlerts()
	if len(alerts) != 1 || alerts[0].Report.Undeclared[0] != "user.name" {
		t.Fatalf("alerts = %+v", alerts)
	}
	// Sysadmin approves: processing becomes active.
	if err := e.ps.Approve(alerts[0].ID, "root"); err != nil {
		t.Fatalf("Approve: %v", err)
	}
	if _, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user"}); err != nil {
		t.Fatalf("post-approval Invoke: %v", err)
	}
	if len(e.ps.PendingAlerts()) != 0 {
		t.Fatal("alert not resolved")
	}
}

// TestApproveGrantsUndeclaredReads checks that approval grants what the
// alert named: the approved field joins the purpose, so the DED's view
// shows it, and the "approved" audit entry names it.
func TestApproveGrantsUndeclaredReads(t *testing.T) {
	e := newEnv(t, nil)
	sch := userSchema()
	sch.DefaultConsent = map[string]membrane.Grant{"purpose3": {Kind: membrane.GrantAll}}
	if err := e.store.CreateType(e.tok, sch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Insert(e.tok, "user", "alice", dbfs.Record{
		"name": dbfs.S("Alice"), "year_of_birthdate": dbfs.I(1990),
	}, nil); err != nil {
		t.Fatal(err)
	}
	greedy := &ded.Func{
		Name:          "compute_age",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate", "user.name"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			name, err := c.Field("name")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: int64(len(name.S))}, nil
		},
	}
	if err := e.ps.Register(decl3(), greedy, false); !errors.Is(err, ErrPendingApproval) {
		t.Fatalf("Register err = %v, want ErrPendingApproval", err)
	}
	if err := e.ps.Approve(e.ps.PendingAlerts()[0].ID, "root"); err != nil {
		t.Fatalf("Approve: %v", err)
	}
	res, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if err != nil {
		t.Fatalf("post-approval Invoke: %v", err)
	}
	if res.Processed != 1 || res.Outputs[0] != int64(len("Alice")) {
		t.Fatalf("result = %+v, want the approved field read", res)
	}
	var approved []audit.Entry
	for _, en := range e.log.All() {
		if en.Kind == audit.KindAlert && en.Outcome == "approved" {
			approved = append(approved, en)
		}
	}
	if len(approved) != 1 || approved[0].Detail != "sysadmin=root reads: user.name" {
		t.Fatalf("approved audit entries = %+v", approved)
	}
}

func TestRejectAlert(t *testing.T) {
	e := newEnv(t, nil)
	e.seed(t)
	greedy := ageImpl()
	greedy.DeclaredReads = []string{"user.name"}
	_ = e.ps.Register(decl3(), greedy, false)
	alerts := e.ps.PendingAlerts()
	if err := e.ps.Reject(alerts[0].ID, "root"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user"}); !errors.Is(err, ErrNotActive) {
		t.Fatalf("rejected Invoke err = %v", err)
	}
	info, err := e.ps.Get("purpose3")
	if err != nil || info.State != StateRejected {
		t.Fatalf("info = %+v, %v", info, err)
	}
	// Resolving twice fails.
	if err := e.ps.Approve(alerts[0].ID, "root"); !errors.Is(err, ErrNoAlert) {
		t.Fatalf("double resolve err = %v", err)
	}
	if err := e.ps.Approve(999, "root"); !errors.Is(err, ErrNoAlert) {
		t.Fatalf("unknown alert err = %v", err)
	}
}

func TestUndeclaredReadFailsInvoke(t *testing.T) {
	// An implementation that *declares* compliant reads but *performs*
	// broader ones fails the invocation: the view holds only what the
	// purpose declares, so nothing comes back and no alert waits for a
	// sysadmin.
	e := newEnv(t, nil)
	e.seed(t)
	sneaky := &ded.Func{
		Name:          "sneaky",
		Purpose:       "purpose3",
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			_ = c.Has("name") // probe outside the declaration (and the view)
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: yob.I}, nil
		},
	}
	if err := e.ps.Register(decl3(), sneaky, false); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user"})
	if !errors.Is(err, ded.ErrUndeclaredRead) || res != nil {
		t.Fatalf("Invoke = %+v, %v; want ErrUndeclaredRead and no result", res, err)
	}
	if alerts := e.ps.PendingAlerts(); len(alerts) != 0 {
		t.Fatalf("pending alerts = %+v, want none", alerts)
	}
	if n := e.ps.Invocations(); n != 0 {
		t.Fatalf("Invocations = %d, want 0", n)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	e := newEnv(t, nil)
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	if err := e.ps.Register(decl3(), ageImpl(), false); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("dup Register err = %v", err)
	}
}

func TestInvokeUnknown(t *testing.T) {
	e := newEnv(t, nil)
	if _, err := e.ps.Invoke(InvokeRequest{Processing: "ghost"}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unknown Invoke err = %v", err)
	}
}

// TestMaintenanceReservedForBuiltins checks that maintenance mode — the
// consent bypass and the admission skip — belongs to the built-in
// processings alone: an operator processing on the same record is still
// consent-filtered and still shed by its rate limit, while a processing
// registered as a builtin is neither.
func TestMaintenanceReservedForBuiltins(t *testing.T) {
	e := newEnv(t, nil)
	pdid := e.seed(t)
	if _, err := e.store.MutateMembrane(e.tok, pdid, func(m *membrane.Membrane) error {
		m.WithdrawConsent("purpose3")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	builtinDecl := decl3()
	builtinDecl.Name = "builtin_age"
	builtinImpl := ageImpl()
	builtinImpl.Purpose = "builtin_age"
	if err := e.ps.Register(builtinDecl, builtinImpl, true); err != nil {
		t.Fatal(err)
	}
	e.ps.ConfigureAdmission(admission.New(admission.Options{Clock: e.clock}))
	for _, name := range []string{"purpose3", "builtin_age"} {
		if err := e.ps.SetRateLimit(name, 1, 1); err != nil { // the clock never refills
			t.Fatal(err)
		}
	}

	res, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", PDRef: pdid})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != 0 || res.Filtered["consent-denied"] != 1 {
		t.Fatalf("operator processing: processed %d, filtered %v; want consent-denied", res.Processed, res.Filtered)
	}
	if _, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", PDRef: pdid}); !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("operator processing past its burst: err = %v, want admission.ErrOverloaded", err)
	}
	for i := 0; i < 3; i++ {
		res, err := e.ps.Invoke(InvokeRequest{Processing: "builtin_age", PDRef: pdid})
		if err != nil {
			t.Fatalf("builtin invoke %d: %v", i, err)
		}
		if res.Processed != 1 {
			t.Fatalf("builtin invoke %d: processed %d, filtered %v", i, res.Processed, res.Filtered)
		}
	}
}

func TestInitCollect(t *testing.T) {
	e := newEnv(t, nil)
	e.seed(t)
	// Without a collector wired, InitCollect fails.
	if err := e.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	_, err := e.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user",
		InitCollect: true, CollectMethod: "web_form"})
	if !errors.Is(err, ErrNoCollector) {
		t.Fatalf("no collector err = %v", err)
	}

	// With a collector: acquisition runs before processing. The closure
	// captures e2 by reference, so it can insert through the env even
	// though it is wired at construction time.
	collected := 0
	var e2 *env
	e2 = newEnv(t, func(typeName, method string, subjects []string) (int, error) {
		collected = len(subjects)
		for _, s := range subjects {
			if _, err := e2.store.Insert(e2.tok, typeName, s, dbfs.Record{
				"name": dbfs.S("Collected " + s), "year_of_birthdate": dbfs.I(1980),
			}, nil); err != nil {
				return 0, err
			}
		}
		return len(subjects), nil
	})
	_ = e2.seed(t)
	if err := e2.ps.Register(decl3(), ageImpl(), false); err != nil {
		t.Fatal(err)
	}
	res, err := e2.ps.Invoke(InvokeRequest{Processing: "purpose3", TypeName: "user",
		InitCollect: true, CollectMethod: "web_form", CollectSubjects: []string{"bob"}})
	if err != nil {
		t.Fatalf("Invoke with collect: %v", err)
	}
	if collected != 1 {
		t.Fatalf("collector saw %d subjects", collected)
	}
	if res.Processed != 2 { // alice (seed) + bob (collected)
		t.Fatalf("Processed = %d, want 2", res.Processed)
	}
}

func TestGetNeverExposesImpl(t *testing.T) {
	e := newEnv(t, nil)
	if err := e.ps.Register(decl3(), ageImpl(), true); err != nil {
		t.Fatal(err)
	}
	info, err := e.ps.Get("purpose3")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "purpose3" || !info.Builtin || info.State != StateActive {
		t.Fatalf("info = %+v", info)
	}
	// Mutating the returned reads must not affect the store.
	info.Reads[0] = "tampered"
	info2, _ := e.ps.Get("purpose3")
	if info2.Reads[0] != "user.year_of_birthdate" {
		t.Fatal("Get exposed internal slice")
	}
	if _, err := e.ps.Get("ghost"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Get ghost err = %v", err)
	}
	names := e.ps.List()
	if len(names) != 1 || names[0] != "purpose3" {
		t.Fatalf("List = %v", names)
	}
}

func TestStateStrings(t *testing.T) {
	if StateActive.String() != "active" || StatePending.String() != "pending-approval" ||
		StateRejected.String() != "rejected" {
		t.Fatal("state names wrong")
	}
}
