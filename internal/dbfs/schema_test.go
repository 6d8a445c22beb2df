package dbfs

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/membrane"
	"repro/internal/simclock"
)

// userSchema is the paper's Listing 1 type.
func userSchema() *Schema {
	return &Schema{
		Name: "user",
		Fields: []Field{
			{Name: "name", Type: TypeString},
			{Name: "pwd", Type: TypeString, Sensitive: true},
			{Name: "year_of_birthdate", Type: TypeInt},
		},
		Views: []View{
			{Name: "v_name", Fields: []string{"name"}},
			{Name: "v_ano", Fields: []string{"year_of_birthdate"}},
		},
		DefaultConsent: map[string]membrane.Grant{
			"purpose1": {Kind: membrane.GrantAll},
			"purpose2": {Kind: membrane.GrantNone},
			"purpose3": {Kind: membrane.GrantView, View: "v_ano"},
		},
		Collection: map[string]string{
			"web_form":    "user_form.html",
			"third_party": "fetch_data.py",
		},
		DefaultTTL:  365 * 24 * time.Hour,
		Origin:      membrane.OriginSubject,
		Sensitivity: membrane.SensitivityHigh,
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := userSchema().Validate(); err != nil {
		t.Fatalf("Listing 1 schema rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Schema)
	}{
		{"empty name", func(s *Schema) { s.Name = "" }},
		{"no fields", func(s *Schema) { s.Fields = nil }},
		{"unnamed field", func(s *Schema) { s.Fields[0].Name = "" }},
		{"dup field", func(s *Schema) { s.Fields[1].Name = "name" }},
		{"bad type", func(s *Schema) { s.Fields[0].Type = 99 }},
		{"unnamed view", func(s *Schema) { s.Views[0].Name = "" }},
		{"dup view", func(s *Schema) { s.Views[1].Name = "v_name" }},
		{"empty view", func(s *Schema) { s.Views[0].Fields = nil }},
		{"view bad field", func(s *Schema) { s.Views[0].Fields = []string{"ghost"} }},
		{"consent bad view", func(s *Schema) {
			s.DefaultConsent["p"] = membrane.Grant{Kind: membrane.GrantView, View: "ghost"}
		}},
		{"empty purpose", func(s *Schema) {
			s.DefaultConsent[""] = membrane.Grant{Kind: membrane.GrantAll}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := userSchema()
			tt.mutate(s)
			if err := s.Validate(); !errors.Is(err, ErrBadSchema) {
				t.Fatalf("Validate = %v, want ErrBadSchema", err)
			}
		})
	}
}

func TestSchemaCodec(t *testing.T) {
	s := userSchema()
	raw, err := EncodeSchema(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchema(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Fields) != 3 || len(got.Views) != 2 ||
		got.DefaultTTL != s.DefaultTTL || got.Sensitivity != s.Sensitivity {
		t.Fatalf("round trip: %+v", got)
	}
	if g := got.DefaultConsent["purpose3"]; g.Kind != membrane.GrantView || g.View != "v_ano" {
		t.Fatalf("consent round trip: %+v", g)
	}
	if _, err := DecodeSchema([]byte(`{"name":""}`)); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("DecodeSchema invalid = %v", err)
	}
}

func TestVisibleFields(t *testing.T) {
	s := userSchema()
	all, err := s.VisibleFields(membrane.Grant{Kind: membrane.GrantAll})
	if err != nil || len(all) != 3 {
		t.Fatalf("GrantAll fields = %v, %v", all, err)
	}
	v, err := s.VisibleFields(membrane.Grant{Kind: membrane.GrantView, View: "v_ano"})
	if err != nil || len(v) != 1 || !v["year_of_birthdate"] {
		t.Fatalf("view fields = %v, %v", v, err)
	}
	none, err := s.VisibleFields(membrane.Grant{Kind: membrane.GrantNone})
	if err != nil || len(none) != 0 {
		t.Fatalf("GrantNone fields = %v, %v", none, err)
	}
	if _, err := s.VisibleFields(membrane.Grant{Kind: membrane.GrantView, View: "nope"}); !errors.Is(err, ErrNoView) {
		t.Fatalf("unknown view err = %v, want ErrNoView", err)
	}
}

func TestDefaultMembrane(t *testing.T) {
	s := userSchema()
	now := simclock.Epoch
	m := s.DefaultMembrane("user/alice/1", "alice", now)
	if err := m.Validate(); err != nil {
		t.Fatalf("default membrane invalid: %v", err)
	}
	if m.TTL != s.DefaultTTL || m.Origin != membrane.OriginSubject || m.Sensitivity != membrane.SensitivityHigh {
		t.Fatalf("defaults not applied: %+v", m)
	}
	if m.Collection["web_form"] != "user_form.html" {
		t.Fatalf("collection not applied: %v", m.Collection)
	}
	if _, err := m.Decide("purpose1", now.Add(time.Hour)); err != nil {
		t.Fatalf("purpose1 should pass: %v", err)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	s := userSchema()
	rec := Record{
		"name":              S("Chiraz Benamor"),
		"pwd":               S("hunter2"),
		"year_of_birthdate": I(1990),
	}
	plain, sens := partsOf(s)
	if !sens["pwd"] || sens["name"] {
		t.Fatalf("partsOf wrong: plain=%v sens=%v", plain, sens)
	}
	enc, err := encodeRecordPart(s, rec, plain)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeRecordPart(s, enc, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !valueEqual(dec["name"], rec["name"]) || !valueEqual(dec["year_of_birthdate"], rec["year_of_birthdate"]) {
		t.Fatalf("decoded = %v", dec)
	}
	if _, ok := dec["pwd"]; ok {
		t.Fatal("plain part leaked sensitive field")
	}
}

func TestRecordCodecMissingFields(t *testing.T) {
	s := userSchema()
	rec := Record{"name": S("only name")}
	plain, _ := partsOf(s)
	enc, err := encodeRecordPart(s, rec, plain)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeRecordPart(s, enc, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || dec["name"].S != "only name" {
		t.Fatalf("decoded = %v", dec)
	}
}

func TestRecordValidation(t *testing.T) {
	s := userSchema()
	if err := validateRecord(s, Record{"ghost": S("x")}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("unknown field err = %v", err)
	}
	if err := validateRecord(s, Record{"name": I(42)}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("wrong type err = %v", err)
	}
}

func TestRecordCodecCorruption(t *testing.T) {
	s := userSchema()
	plain, _ := partsOf(s)
	if _, err := decodeRecordPart(s, []byte{1}, plain); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("truncated err = %v", err)
	}
	rec := Record{"name": S("x")}
	enc, err := encodeRecordPart(s, rec, plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecordPart(s, append(enc, 0xFF), plain); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("trailing bytes err = %v", err)
	}
}

func TestAllValueTypes(t *testing.T) {
	s := &Schema{
		Name: "every",
		Fields: []Field{
			{Name: "s", Type: TypeString},
			{Name: "i", Type: TypeInt},
			{Name: "f", Type: TypeFloat},
			{Name: "b", Type: TypeBool},
			{Name: "t", Type: TypeTime},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2022, 5, 30, 12, 0, 0, 0, time.UTC)
	rec := Record{
		"s": S("été\x00bytes"), // non-ASCII and NUL survive
		"i": I(-123456789),
		"f": F(3.14159),
		"b": B(true),
		"t": T(when),
	}
	part := map[string]bool{"s": true, "i": true, "f": true, "b": true, "t": true}
	enc, err := encodeRecordPart(s, rec, part)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeRecordPart(s, enc, part)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range rec {
		if !valueEqual(dec[name], v) {
			t.Fatalf("field %q: %v != %v", name, dec[name], v)
		}
	}
}

func TestRecordCodecProperty(t *testing.T) {
	s := &Schema{
		Name: "prop",
		Fields: []Field{
			{Name: "a", Type: TypeString},
			{Name: "b", Type: TypeInt},
			{Name: "c", Type: TypeFloat},
			{Name: "d", Type: TypeBool},
		},
	}
	part := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(a string, b int64, c float64, d, skipA, skipC bool) bool {
		rec := Record{"b": I(b), "d": B(d)}
		if !skipA {
			rec["a"] = S(a)
		}
		if !skipC {
			rec["c"] = F(c)
		}
		enc, err := encodeRecordPart(s, rec, part)
		if err != nil {
			return false
		}
		dec, err := decodeRecordPart(s, enc, part)
		if err != nil {
			return false
		}
		if len(dec) != len(rec) {
			return false
		}
		for k, v := range rec {
			if !valueEqual(dec[k], v) {
				// NaN never equals itself; treat as pass-through check.
				if v.Type == TypeFloat && v.F != v.F && dec[k].F != dec[k].F {
					continue
				}
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestProjectView(t *testing.T) {
	s := userSchema()
	rec := Record{
		"name":              S("Alice"),
		"pwd":               S("secret"),
		"year_of_birthdate": I(1985),
	}
	every := map[string]bool{"name": true, "pwd": true, "year_of_birthdate": true}
	// Listing 2's scenario: purpose3 sees only v_ano.
	got, err := ProjectView(s, rec, membrane.Grant{Kind: membrane.GrantView, View: "v_ano"}, every)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["year_of_birthdate"].I != 1985 {
		t.Fatalf("projection = %v", got)
	}
	all, err := ProjectView(s, rec, membrane.Grant{Kind: membrane.GrantAll}, every)
	if err != nil || len(all) != 3 {
		t.Fatalf("GrantAll projection = %v, %v", all, err)
	}
	// A declared set narrows even a GrantAll view: an undeclared field is
	// not in the view at all.
	narrow, err := ProjectView(s, rec, membrane.Grant{Kind: membrane.GrantAll}, map[string]bool{"name": true})
	if err != nil || len(narrow) != 1 || narrow["name"].S != "Alice" {
		t.Fatalf("declared-set projection = %v, %v", narrow, err)
	}
	if _, err := ProjectView(s, rec, membrane.Grant{Kind: membrane.GrantNone}, every); !errors.Is(err, ErrFieldHidden) {
		t.Fatalf("GrantNone projection err = %v", err)
	}
}

// valueEqual reports whether two values have the same type and contents,
// comparing times as instants.
func valueEqual(a, b Value) bool {
	if a.Type == TypeTime && b.Type == TypeTime {
		return a.T.Equal(b.T)
	}
	return a == b
}

func TestValueHelpers(t *testing.T) {
	if S("x").String() != "x" || I(7).String() != "7" || B(true).String() != "true" {
		t.Fatal("Value.String wrong")
	}
	if F(2.5).Export() != 2.5 || I(7).Export() != int64(7) || B(false).Export() != false {
		t.Fatal("Value.Export wrong")
	}
	r := Record{"b": I(1), "a": S("x")}
	cl := r.Clone()
	cl["a"] = S("mutated")
	if r["a"].S != "x" {
		t.Fatal("Clone is shallow")
	}
}

func TestParseFieldType(t *testing.T) {
	for _, name := range []string{"string", "int", "float", "bool", "time"} {
		ft, err := ParseFieldType(name)
		if err != nil || ft.String() != name {
			t.Fatalf("ParseFieldType(%q) = %v, %v", name, ft, err)
		}
	}
	if _, err := ParseFieldType("blob"); err == nil {
		t.Fatal("ParseFieldType accepted blob")
	}
}
