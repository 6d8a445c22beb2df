package typedsl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dbfs"
	"repro/internal/membrane"
)

// listing1 is the paper's Listing 1, verbatim (modulo code-listing line
// numbers). Note the quirks: consent value "ano" abbreviates view "v_ano",
// the view references the derived field "age", and sensitivity is spelled
// "hight".
const listing1 = `
type user {
  fields {
    name: string,
    pwd: string,
    year_of_birthdate: int
  };
  view v_name {
    name
  };
  view v_ano {
    age
  };
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

func TestParseListing1Verbatim(t *testing.T) {
	d, err := parseSingle(listing1)
	if err != nil {
		t.Fatalf("Parse Listing 1: %v", err)
	}
	if d.Name != "user" {
		t.Fatalf("Name = %q", d.Name)
	}
	if len(d.Fields) != 3 || d.Fields[0].Name != "name" || d.Fields[2].Type != "int" {
		t.Fatalf("Fields = %+v", d.Fields)
	}
	if len(d.Views) != 2 || d.Views[0].Name != "v_name" || d.Views[1].Fields[0] != "age" {
		t.Fatalf("Views = %+v", d.Views)
	}
	if len(d.Consent) != 3 || d.Consent[2].Value != "ano" {
		t.Fatalf("Consent = %+v", d.Consent)
	}
	if len(d.Collection) != 2 || d.Collection[0].Ref != "user_form.html" {
		t.Fatalf("Collection = %+v", d.Collection)
	}
	if d.Origin != "subject" || d.Age != "1Y" || d.Sensitivity != "hight" {
		t.Fatalf("scalars = %q %q %q", d.Origin, d.Age, d.Sensitivity)
	}
}

func TestCompileListing1WithAlias(t *testing.T) {
	d, err := parseSingle(listing1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper derives age from year_of_birthdate (Listing 2); the alias
	// maps the view's derived field onto the stored one.
	sch, err := Compile(d, CompileOptions{FieldAliases: map[string]string{"age": "year_of_birthdate"}})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if sch.Name != "user" || len(sch.Fields) != 3 {
		t.Fatalf("schema = %+v", sch)
	}
	v, ok := sch.ViewByName("v_ano")
	if !ok || v.Fields[0] != "year_of_birthdate" {
		t.Fatalf("v_ano = %+v", v)
	}
	if g := sch.DefaultConsent["purpose3"]; g.Kind != membrane.GrantView || g.View != "v_ano" {
		t.Fatalf("purpose3 grant = %+v (consent shorthand not resolved)", g)
	}
	if g := sch.DefaultConsent["purpose1"]; g.Kind != membrane.GrantAll {
		t.Fatalf("purpose1 grant = %+v", g)
	}
	if g := sch.DefaultConsent["purpose2"]; g.Kind != membrane.GrantNone {
		t.Fatalf("purpose2 grant = %+v", g)
	}
	if sch.DefaultTTL != 365*24*time.Hour {
		t.Fatalf("TTL = %v, want 1Y", sch.DefaultTTL)
	}
	if sch.Sensitivity != membrane.SensitivityHigh {
		t.Fatalf("sensitivity = %v (hight not accepted)", sch.Sensitivity)
	}
	if sch.Origin != membrane.OriginSubject {
		t.Fatalf("origin = %v", sch.Origin)
	}
	if sch.Collection["third_party"] != "fetch_data.py" {
		t.Fatalf("collection = %v", sch.Collection)
	}
}

func TestCompileListing1StrictFails(t *testing.T) {
	d, err := parseSingle(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(d, CompileOptions{}); !errors.Is(err, ErrCompile) {
		t.Fatalf("strict Compile = %v, want ErrCompile (undeclared view field)", err)
	}
}

func TestSensitiveFieldExtension(t *testing.T) {
	src := `
type patient {
  fields {
    name: string,
    ssn: string sensitive,
    age: int
  };
  view v_stats { age };
  consent { research: v_stats };
  origin: sysadmin;
  age: 6M;
  sensitivity: high;
}
`
	schemas, err := CompileSource(src, CompileOptions{})
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	sch := schemas[0]
	f, ok := sch.FieldByName("ssn")
	if !ok || !f.Sensitive {
		t.Fatalf("ssn field = %+v", f)
	}
	if sch.DefaultTTL != 6*30*24*time.Hour {
		t.Fatalf("6M TTL = %v", sch.DefaultTTL)
	}
	if sch.Origin != membrane.OriginSysadmin {
		t.Fatalf("origin = %v", sch.Origin)
	}
}

func TestMultipleTypes(t *testing.T) {
	src := `
type a { fields { x: int }; }
type b { fields { y: string }; consent { p: all }; }
`
	schemas, err := CompileSource(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(schemas) != 2 || schemas[0].Name != "a" || schemas[1].Name != "b" {
		t.Fatalf("schemas = %+v", schemas)
	}
}

func TestCommentsAndTrailingSemis(t *testing.T) {
	src := `
// leading comment
type c {
  /* block
     comment */
  fields { x: int, y: float };
};
`
	d, err := parseSingle(src)
	if err != nil {
		t.Fatalf("comments not handled: %v", err)
	}
	if len(d.Fields) != 2 {
		t.Fatalf("Fields = %+v", d.Fields)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := map[string]string{
		"not a type":            `banana user { }`,
		"missing name":          `type { }`,
		"missing brace":         `type u fields { x: int };`,
		"unterminated":          `type u { fields { x: int };`,
		"bad section":           `type u { frobnicate { }; }`,
		"field missing colon":   `type u { fields { x int }; }`,
		"field missing type":    `type u { fields { x: }; }`,
		"missing semi":          `type u { fields { x: int } }`,
		"unterminated comment":  `type u { /* fields { x: int }; }`,
		"stray char":            `type u @ { }`,
		"consent missing value": `type u { fields { x: int }; consent { p: }; }`,
		"empty input":           `   `,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
				t.Fatalf("Parse = %v, want ErrSyntax", err)
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"bad field type":     `type u { fields { x: blob }; }`,
		"bad origin":         `type u { fields { x: int }; origin: mars; }`,
		"bad age":            `type u { fields { x: int }; age: soon; }`,
		"bad sensitivity":    `type u { fields { x: int }; sensitivity: extreme; }`,
		"unknown view":       `type u { fields { x: int }; consent { p: v_ghost }; }`,
		"undeclared v-field": `type u { fields { x: int }; view v { y }; }`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := CompileSource(src, CompileOptions{}); !errors.Is(err, ErrCompile) {
				t.Fatalf("Compile = %v, want ErrCompile", err)
			}
		})
	}
}

func TestConsentResolutionRules(t *testing.T) {
	src := `
type u {
  fields { a: int, b: int };
  view v_one { a };
  view v_two { b };
  consent {
    exact: v_one,
    prefixed: two,
    full: all
  };
}
`
	schemas, err := CompileSource(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dc := schemas[0].DefaultConsent
	if dc["exact"].View != "v_one" || dc["prefixed"].View != "v_two" || dc["full"].Kind != membrane.GrantAll {
		t.Fatalf("consents = %+v", dc)
	}
}

func TestConsentAmbiguous(t *testing.T) {
	// "xo" resolves neither exactly nor via the v_ prefix, and two views
	// share the suffix: the compiler must refuse to guess.
	src := `
type u {
  fields { a: int };
  view va_xo { a };
  view vb_xo { a };
  consent { p: xo };
}
`
	if _, err := CompileSource(src, CompileOptions{}); !errors.Is(err, ErrCompile) {
		t.Fatalf("ambiguous consent = %v, want ErrCompile", err)
	}
}

func TestParseAge(t *testing.T) {
	cases := map[string]time.Duration{
		"1Y":  365 * 24 * time.Hour,
		"2y":  2 * 365 * 24 * time.Hour,
		"6M":  6 * 30 * 24 * time.Hour,
		"2W":  14 * 24 * time.Hour,
		"30D": 30 * 24 * time.Hour,
		"12H": 12 * time.Hour,
		"90m": 90 * time.Minute, // Go duration fallback
		"":    0,
	}
	for in, want := range cases {
		got, err := ParseAge(in)
		if err != nil || got != want {
			t.Fatalf("ParseAge(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAge("forever"); !errors.Is(err, ErrCompile) {
		t.Fatalf("ParseAge(forever) err = %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	d, err := parseSingle(listing1)
	if err != nil {
		t.Fatal(err)
	}
	printed := Format(d)
	d2, err := parseSingle(printed)
	if err != nil {
		t.Fatalf("reparse printed form: %v\n%s", err, printed)
	}
	if !declEqual(d, d2) {
		t.Fatalf("round trip changed decl:\n%s\nvs\n%s", Format(d), Format(d2))
	}
}

func declEqual(a, b *TypeDecl) bool {
	if a.Name != b.Name || a.Origin != b.Origin || a.Age != b.Age || a.Sensitivity != b.Sensitivity {
		return false
	}
	if len(a.Fields) != len(b.Fields) || len(a.Views) != len(b.Views) ||
		len(a.Consent) != len(b.Consent) || len(a.Collection) != len(b.Collection) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	for i := range a.Views {
		if a.Views[i].Name != b.Views[i].Name || len(a.Views[i].Fields) != len(b.Views[i].Fields) {
			return false
		}
		for j := range a.Views[i].Fields {
			if a.Views[i].Fields[j] != b.Views[i].Fields[j] {
				return false
			}
		}
	}
	for i := range a.Consent {
		if a.Consent[i] != b.Consent[i] {
			return false
		}
	}
	for i := range a.Collection {
		if a.Collection[i] != b.Collection[i] {
			return false
		}
	}
	return true
}

// genIdent produces a small identifier from a seed, for property tests.
func genIdent(seed uint8, prefix string) string {
	letters := "abcdefgh"
	return prefix + string(letters[int(seed)%len(letters)]) + string(letters[int(seed/8)%len(letters)])
}

func TestFormatParsePropertyRandomDecls(t *testing.T) {
	types := []string{"string", "int", "float", "bool", "time"}
	origins := []string{"", "subject", "sysadmin", "third_party", "derived"}
	cfg := &quick.Config{MaxCount: 120}
	err := quick.Check(func(nameSeed uint8, fieldSeeds []uint8, originSeed uint8, withView, withConsent bool) bool {
		if len(fieldSeeds) == 0 {
			fieldSeeds = []uint8{1}
		}
		if len(fieldSeeds) > 6 {
			fieldSeeds = fieldSeeds[:6]
		}
		d := &TypeDecl{Name: genIdent(nameSeed, "t_")}
		seen := map[string]bool{}
		for i, fs := range fieldSeeds {
			fn := genIdent(fs, "f_")
			if seen[fn] {
				continue
			}
			seen[fn] = true
			d.Fields = append(d.Fields, FieldDecl{
				Name:      fn,
				Type:      types[int(fs)%len(types)],
				Sensitive: fs%3 == 0,
			})
			_ = i
		}
		if withView && len(d.Fields) > 0 {
			d.Views = append(d.Views, ViewDecl{Name: "v_a", Fields: []string{d.Fields[0].Name}})
		}
		if withConsent && len(d.Views) > 0 {
			d.Consent = append(d.Consent, ConsentDecl{Purpose: "p_x", Value: "v_a"})
		}
		d.Origin = origins[int(originSeed)%len(origins)]
		printed := Format(d)
		d2, err := parseSingle(printed)
		if err != nil {
			t.Logf("reparse failed: %v\n%s", err, printed)
			return false
		}
		return declEqual(d, d2)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompileIntegrationWithDBFSSchema(t *testing.T) {
	// The compiled schema must satisfy dbfs validation and produce a usable
	// default membrane.
	schemas, err := CompileSource(listing1, CompileOptions{
		FieldAliases: map[string]string{"age": "year_of_birthdate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sch := schemas[0]
	if err := sch.Validate(); err != nil {
		t.Fatalf("compiled schema invalid: %v", err)
	}
	m := sch.DefaultMembrane("user/x/1", "x", time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC))
	if err := m.Validate(); err != nil {
		t.Fatalf("default membrane invalid: %v", err)
	}
	var _ *dbfs.Schema = sch
	if !strings.Contains(Format(&TypeDecl{Name: "user", Fields: []FieldDecl{{Name: "x", Type: "int"}}}), "type user") {
		t.Fatal("Format output malformed")
	}
}

// parseSingle parses a source that must hold exactly one declaration.
func parseSingle(src string) (*TypeDecl, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(decls) != 1 {
		return nil, fmt.Errorf("%w: expected one type, got %d", ErrSyntax, len(decls))
	}
	return decls[0], nil
}
