package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/collect"
	"repro/internal/dbfs"
	"repro/internal/ded"
	"repro/internal/lsm"
	"repro/internal/ps"
	"repro/internal/purpose"
	"repro/internal/typedsl"
	"repro/internal/xrand"
)

// listing1 is the paper's type declaration (see typedsl tests for the
// verbatim quirks).
const listing1 = `
type user {
  fields {
    name: string,
    pwd: string sensitive,
    year_of_birthdate: int
  };
  view v_name { name };
  view v_ano { age };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: ano
  };
  collection {
    web_form: user_form.html,
    third_party: fetch_data.py
  };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}
`

func bootTest(t *testing.T) *System {
	t.Helper()
	s, err := Boot(Options{AuthorityBits: 1024})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return s
}

// aliasOpts maps Listing 1's derived "age" onto the stored field.
func aliasOpts() typedsl.CompileOptions {
	return typedsl.CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}}
}

func setupUserType(t *testing.T, s *System) {
	t.Helper()
	if err := s.DeclareTypesDSL(listing1, aliasOpts()); err != nil {
		t.Fatalf("DeclareTypesDSL: %v", err)
	}
	s.RegisterSource("user", collect.NewWebFormSource("user_form.html"))
}

// registerComputeAge registers Listing 2's compute_age under the named
// purpose of Listing 1's consent block.
func registerComputeAge(t *testing.T, s *System, purposeName string) {
	t.Helper()
	decl := &purpose.Decl{
		Name:        purposeName,
		Description: "Compute the age of the input user",
		Basis:       purpose.BasisConsent,
		Reads:       []string{"user.year_of_birthdate"},
	}
	impl := &ded.Func{
		Name:          "compute_age",
		Purpose:       purposeName,
		DeclaredReads: []string{"user.year_of_birthdate"},
		Fn: func(c *ded.Ctx) (ded.Output, error) {
			yob, err := c.Field("year_of_birthdate")
			if err != nil {
				return ded.Output{}, err
			}
			now, err := c.Now()
			if err != nil {
				return ded.Output{}, err
			}
			return ded.Output{NonPD: int64(now.Year()) - yob.I}, nil
		},
	}
	if err := s.PS().Register(decl, impl, false); err != nil {
		t.Fatalf("Register: %v", err)
	}
}

func TestBootTopology(t *testing.T) {
	s := bootTest(t)
	// Formatting DBFS already crossed the bus.
	if s.Stats().Bus.Messages == 0 {
		t.Fatal("no bus traffic: PD IO not routed through the driver kernel")
	}
}

func TestEndToEndListingFlow(t *testing.T) {
	// The paper's Listings 1–3 as one flow: declare the type, collect a
	// user via the web form, invoke compute_age through PS.
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s, "purpose3")

	if err := s.SubmitForm("user", "chiraz", dbfs.Record{
		"name": dbfs.S("Chiraz Benamor"), "pwd": dbfs.S("secret"),
		"year_of_birthdate": dbfs.I(1990),
	}); err != nil {
		t.Fatalf("SubmitForm: %v", err)
	}
	// Listing 3: ps_invoke with collection initialization.
	res, err := s.PS().Invoke(ps.InvokeRequest{
		Processing:      "purpose3",
		TypeName:        "user",
		CollectMethod:   "web_form",
		InitCollect:     true,
		CollectSubjects: []string{"chiraz"},
	})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if res.Processed != 1 || len(res.Outputs) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if age := res.Outputs[0].(int64); age != 33 { // sim epoch 2023 - 1990
		t.Fatalf("age = %d", age)
	}
	// The sensitive field and name never hit the disk in plaintext.
	for _, secret := range []string{"Chiraz Benamor", "secret"} {
		if hits := s.ResidueScan([]byte(secret)); len(hits) != 0 {
			t.Fatalf("plaintext %q on PD disk at %v", secret, hits)
		}
	}
	// Listing 1 grants purpose2 "none": the same function registered
	// under purpose2 processes nothing, because every membrane denies it.
	registerComputeAge(t, s, "purpose2")
	res, err = s.PS().Invoke(ps.InvokeRequest{Processing: "purpose2", TypeName: "user"})
	if err != nil {
		t.Fatalf("Invoke purpose2: %v", err)
	}
	if res.Processed != 0 || len(res.Outputs) != 0 || len(res.PDRefs) != 0 ||
		len(res.Filtered) != 1 || res.Filtered["consent-denied"] != 1 {
		t.Fatalf("purpose2 (consent none) res = %+v", res)
	}
}

func TestEnforcementInvariants(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)

	// Rule 4: only the DED reaches DBFS — an app token is refused.
	appTok := s.Guard().Mint("app", lsm.CapProcessingStore)
	if _, err := s.DBFS().GetRecord(appTok, "user/alice/1"); !errors.Is(err, lsm.ErrMissingCapability) {
		t.Fatalf("app access err = %v", err)
	}
	// A forged token is refused.
	other := lsm.NewGuard().Mint("fake-ded", lsm.CapDBFS)
	if _, err := s.DBFS().GetRecord(other, "user/alice/1"); !errors.Is(err, lsm.ErrForgedToken) {
		t.Fatalf("forged access err = %v", err)
	}
	if s.Stats().Denials < 2 {
		t.Fatalf("denials = %d", s.Stats().Denials)
	}
}

func TestRightsThroughSystem(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	registerComputeAge(t, s, "purpose3")
	rng := xrand.New(7)
	for _, subject := range testSubjectIDs(5) {
		if err := s.SubmitForm("user", subject, testUserRecord(rng, subject)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Acquire("user", "web_form", testSubjectIDs(5)); err != nil || n != 5 {
		t.Fatalf("Acquire = %d, %v", n, err)
	}
	report, err := s.Rights().Access("s000001")
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	if len(report.Data["user"]) != 1 {
		t.Fatalf("report data = %+v", report.Data)
	}
	erased, err := s.Rights().Erase("s000001")
	if err != nil || len(erased.Erased) != 1 {
		t.Fatalf("Erase = %+v, %v", erased, err)
	}
	// Others untouched.
	if rep2, err := s.Rights().Access("s000002"); err != nil || rep2.Data["user"][0].Erased {
		t.Fatalf("neighbour affected: %+v, %v", rep2, err)
	}
}

func TestAlertWorkflowThroughSystem(t *testing.T) {
	s := bootTest(t)
	setupUserType(t, s)
	decl := &purpose.Decl{Name: "newsletter", Description: "send product news",
		Basis: purpose.BasisConsent, Reads: []string{"user.name"}}
	greedy := &ded.Func{
		Name: "overreader", Purpose: "newsletter",
		DeclaredReads: []string{"user.name", "user.pwd"},
		Fn:            func(*ded.Ctx) (ded.Output, error) { return ded.Output{NonPD: 1}, nil },
	}
	err := s.PS().Register(decl, greedy, false)
	if !errors.Is(err, ps.ErrPendingApproval) {
		t.Fatalf("Register = %v", err)
	}
	alerts := s.PS().PendingAlerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if err := s.PS().Approve(alerts[0].ID, "root"); err != nil {
		t.Fatal(err)
	}
	info, err := s.PS().Get("newsletter")
	if err != nil || info.State != ps.StateActive {
		t.Fatalf("info = %+v, %v", info, err)
	}
}

func TestNPDFilesystemOpen(t *testing.T) {
	// The second filesystem is ordinary and unguarded (it holds NPD).
	s := bootTest(t)
	if err := s.NPD().WriteFile("/build.log", []byte("compile ok")); err != nil {
		t.Fatal(err)
	}
	got, err := s.NPD().ReadFile("/build.log")
	if err != nil || string(got) != "compile ok" {
		t.Fatalf("NPD read = %q, %v", got, err)
	}
	// And it does NOT encrypt: NPD residue is expected and harmless.
	if hits := s.NPDResidueScan([]byte("compile ok")); len(hits) == 0 {
		t.Fatal("NPD data should be stored in plaintext")
	}
}

func TestSubmitFormErrors(t *testing.T) {
	s := bootTest(t)
	err := s.SubmitForm("ghost", "a", dbfs.Record{})
	if !errors.Is(err, ErrNoFormSource) {
		t.Fatalf("SubmitForm ghost err = %v", err)
	}
}

func TestSimClockAccessor(t *testing.T) {
	s := bootTest(t)
	if _, ok := s.SimClock(); !ok {
		t.Fatal("default boot should use a sim clock")
	}
}

// testSubjectIDs and testUserRecord mirror the internal/workload
// generators. They are inlined because workload now sits above core (its
// macro targets drive core.System), so core's own tests cannot import it
// without a cycle.
func testSubjectIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%06d", i+1)
	}
	return out
}

func testUserRecord(rng *xrand.RNG, subjectID string) dbfs.Record {
	return dbfs.Record{
		"name":              dbfs.S("User " + subjectID),
		"pwd":               dbfs.S("pw-" + subjectID),
		"year_of_birthdate": dbfs.I(int64(1940 + rng.Intn(70))),
	}
}
