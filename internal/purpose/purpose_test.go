package purpose

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// computeAge is the paper's Listing 2 purpose ("purpose3"): compute the age
// of the input user.
const computeAge = `
purpose compute_age "Compute the age of the input user" {
  basis: consent;
  reads: user.year_of_birthdate;
  produces: age_pd;
}
`

func TestParseComputeAge(t *testing.T) {
	d, err := parseSingle(computeAge)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Name != "compute_age" || d.Basis != BasisConsent || d.Produces != "age_pd" {
		t.Fatalf("decl = %+v", d)
	}
	if len(d.Reads) != 1 || d.Reads[0] != "user.year_of_birthdate" {
		t.Fatalf("reads = %v", d.Reads)
	}
	if d.Description != "Compute the age of the input user" {
		t.Fatalf("description = %q", d.Description)
	}
}

func TestParseMultipleAndComments(t *testing.T) {
	src := `
// marketing purposes
purpose newsletter "Send product news" {
  basis: consent;
  reads: user.name;
}
purpose fraud_check "Detect payment fraud" {
  basis: legal_obligation;
  reads: user.name, payment.amount;
}
`
	decls, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 2 || decls[1].Basis != BasisLegalObligation || len(decls[1].Reads) != 2 {
		t.Fatalf("decls = %+v", decls)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not purpose":        `porpoise x "d" { basis: consent; }`,
		"no name":            `purpose { }`,
		"unterminated descr": `purpose p "half { basis: consent; }`,
		"no brace":           `purpose p "d" basis: consent;`,
		"bad clause":         `purpose p "d" { window: big; }`,
		"bad basis":          `purpose p "d" { basis: vibes; }`,
		"missing semi":       `purpose p "d" { basis: consent }`,
		"unterminated":       `purpose p "d" { basis: consent;`,
		"empty":              `  `,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrInvalid) {
				t.Fatalf("Parse = %v, want ErrSyntax/ErrInvalid", err)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	good := &Decl{Name: "p", Description: "d", Basis: BasisConsent, Reads: []string{"t.f"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Decl{
		{Description: "d", Basis: BasisConsent},  // no name
		{Name: "p", Basis: BasisConsent},         // no description
		{Name: "p", Description: "d"},            // no basis
		{Name: "p", Description: "d", Basis: 99}, // bad basis
		{Name: "p", Description: "d", Basis: BasisConsent, // bad read
			Reads: []string{"nodot"}},
	}
	for i, d := range cases {
		if err := d.Validate(); !errors.Is(err, ErrInvalid) {
			t.Fatalf("case %d: Validate = %v, want ErrInvalid", i, err)
		}
	}
}

func TestReadsHelpers(t *testing.T) {
	d := &Decl{Name: "p", Description: "d", Basis: BasisConsent,
		Reads: []string{"user.b", "user.a", "payment.x"}}
	if got := d.ReadsOfType("user"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("ReadsOfType = %v", got)
	}
}

func TestMatch(t *testing.T) {
	d := &Decl{Name: "p", Description: "d", Basis: BasisConsent,
		Reads: []string{"user.year_of_birthdate", "user.name"}}

	// Implementation within its declaration.
	r := Match(d, []string{"user.year_of_birthdate"})
	if !r.OK || len(r.Undeclared) != 0 {
		t.Fatalf("subset match = %+v", r)
	}
	if len(r.Unused) != 1 || r.Unused[0] != "user.name" {
		t.Fatalf("unused = %v", r.Unused)
	}

	// Implementation reaching beyond: the §3(4) mismatch that raises an
	// alert.
	r = Match(d, []string{"user.year_of_birthdate", "user.pwd"})
	if r.OK || len(r.Undeclared) != 1 || r.Undeclared[0] != "user.pwd" {
		t.Fatalf("overreach match = %+v", r)
	}

	// Empty implementation is trivially OK.
	r = Match(d, nil)
	if !r.OK {
		t.Fatalf("empty impl = %+v", r)
	}
}

func TestMatchProperty(t *testing.T) {
	// Property: Match(d, d.Reads) is always OK with no unused/undeclared.
	cfg := &quick.Config{MaxCount: 100}
	err := quick.Check(func(fieldSeeds []uint8) bool {
		d := &Decl{Name: "p", Description: "d", Basis: BasisConsent}
		for _, s := range fieldSeeds {
			d.Reads = append(d.Reads, "t.f"+string(rune('a'+s%16)))
		}
		r := Match(d, d.Reads)
		return r.OK && len(r.Undeclared) == 0 && len(r.Unused) == 0
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	d, err := parseSingle(computeAge)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := parseSingle(Format(d))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if d2.Name != d.Name || d2.Description != d.Description || d2.Basis != d.Basis ||
		d2.Produces != d.Produces || len(d2.Reads) != len(d.Reads) {
		t.Fatalf("round trip: %+v vs %+v", d, d2)
	}
}

func TestBasisRoundTrip(t *testing.T) {
	for _, name := range []string{"consent", "contract", "legal_obligation",
		"vital_interest", "public_task", "legitimate_interest"} {
		b, err := ParseBasis(name)
		if err != nil || b.String() != name {
			t.Fatalf("basis %q: %v, %v", name, b, err)
		}
	}
	if _, err := ParseBasis("vibes"); err == nil {
		t.Fatal("ParseBasis accepted garbage")
	}
}

// parseSingle parses a source that must hold exactly one declaration.
func parseSingle(src string) (*Decl, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(decls) != 1 {
		return nil, fmt.Errorf("%w: expected one purpose, got %d", ErrSyntax, len(decls))
	}
	return decls[0], nil
}
