// Package typedsl implements the paper's personal-data type declaration
// language (Listing 1): the sysadmin-facing DSL in which PD types, views,
// default consents, collection interfaces, origin, retention ("age") and
// sensitivity are declared before any application may process data of that
// type.
//
// The package parses source text into an AST, compiles the AST into a
// dbfs.Schema plus membrane defaults, and can print an AST back to canonical
// source (parse∘print is the identity, property-tested).
//
// Faithfulness notes, recorded here because TestParseListing1Verbatim replays
// the paper's listing verbatim:
//   - Listing 1 spells sensitivity "hight"; the parser accepts it as "high".
//   - Listing 1's consent block grants purpose3 the value "ano", an
//     abbreviation of the view "v_ano"; the compiler resolves consent values
//     to views by exact name, then by the "v_" prefix convention, then by
//     unique suffix.
//   - Listing 1's view v_ano lists the field "age", which is not declared in
//     fields (age is *derived* from year_of_birthdate by Listing 2's
//     compute_age). CompileOptions.FieldAliases lets the operator map such
//     derived names onto stored fields; the default is strict rejection.
package typedsl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/dbfs"
	"repro/internal/membrane"
)

// Sentinel errors.
var (
	// ErrSyntax reports a lexing/parsing failure.
	ErrSyntax = errors.New("typedsl: syntax error")
	// ErrCompile reports a semantically invalid declaration.
	ErrCompile = errors.New("typedsl: compile error")
)

// FieldDecl is one declared field.
type FieldDecl struct {
	Name string
	Type string
	// Sensitive marks the field for separate storage (DSL: a trailing
	// "sensitive" keyword, an extension over Listing 1).
	Sensitive bool
}

// ViewDecl is one declared view.
type ViewDecl struct {
	Name   string
	Fields []string
}

// ConsentDecl is one default-consent row: purpose -> all|none|view.
type ConsentDecl struct {
	Purpose string
	Value   string
}

// CollectionDecl is one collection row: method -> interface reference.
type CollectionDecl struct {
	Method string
	Ref    string
}

// TypeDecl is the AST of one "type name { ... }" block.
type TypeDecl struct {
	Name        string
	Fields      []FieldDecl
	Views       []ViewDecl
	Consent     []ConsentDecl
	Collection  []CollectionDecl
	Origin      string
	Age         string
	Sensitivity string
}

// --- lexer ---

type tokenKind int

const (
	tokIdent tokenKind = iota + 1
	tokLBrace
	tokRBrace
	tokColon
	tokComma
	tokSemi
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	line int
}

func isIdentRune(r byte) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return true
	case r == '_', r == '.', r == '-', r == '/':
		return true
	default:
		return false
	}
}

// lex tokenizes src. Comments: // to end of line and /* ... */.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("%w: line %d: unterminated comment", ErrSyntax, line)
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", line})
			i++
		case c == ':':
			toks = append(toks, token{tokColon, ":", line})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", line})
			i++
		case c == ';':
			toks = append(toks, token{tokSemi, ";", line})
			i++
		case isIdentRune(c):
			j := i
			for j < len(src) && isIdentRune(src[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("%w: line %d: unexpected character %q", ErrSyntax, line, string(c))
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("%w: line %d: expected %s, got %q", ErrSyntax, t.line, what, t.text)
	}
	return t, nil
}

// accept consumes the next token if it matches kind.
func (p *parser) accept(kind tokenKind) bool {
	if p.peek().kind == kind {
		p.pos++
		return true
	}
	return false
}

// Parse parses one or more type declarations from src.
func Parse(src string) ([]*TypeDecl, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var decls []*TypeDecl
	for p.peek().kind != tokEOF {
		d, err := p.parseType()
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("%w: no type declarations", ErrSyntax)
	}
	return decls, nil
}

func (p *parser) parseType() (*TypeDecl, error) {
	kw, err := p.expect(tokIdent, `"type"`)
	if err != nil {
		return nil, err
	}
	if kw.text != "type" {
		return nil, fmt.Errorf("%w: line %d: expected \"type\", got %q", ErrSyntax, kw.line, kw.text)
	}
	name, err := p.expect(tokIdent, "type name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return nil, err
	}
	d := &TypeDecl{Name: name.text}
	for {
		t := p.peek()
		if t.kind == tokRBrace {
			p.next()
			break
		}
		if t.kind == tokEOF {
			return nil, fmt.Errorf("%w: line %d: unterminated type %q", ErrSyntax, t.line, d.Name)
		}
		kw, err := p.expect(tokIdent, "section keyword")
		if err != nil {
			return nil, err
		}
		switch kw.text {
		case "fields":
			if err := p.parseFields(d); err != nil {
				return nil, err
			}
		case "view":
			if err := p.parseView(d); err != nil {
				return nil, err
			}
		case "consent":
			if err := p.parsePairs(kw.text, func(k, v string) {
				d.Consent = append(d.Consent, ConsentDecl{Purpose: k, Value: v})
			}); err != nil {
				return nil, err
			}
		case "collection":
			if err := p.parsePairs(kw.text, func(k, v string) {
				d.Collection = append(d.Collection, CollectionDecl{Method: k, Ref: v})
			}); err != nil {
				return nil, err
			}
		case "origin", "age", "sensitivity":
			if _, err := p.expect(tokColon, ":"); err != nil {
				return nil, err
			}
			val, err := p.expect(tokIdent, "value")
			if err != nil {
				return nil, err
			}
			switch kw.text {
			case "origin":
				d.Origin = val.text
			case "age":
				d.Age = val.text
			case "sensitivity":
				d.Sensitivity = val.text
			}
			if _, err := p.expect(tokSemi, ";"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: line %d: unknown section %q", ErrSyntax, kw.line, kw.text)
		}
	}
	// Optional trailing semicolon after the closing brace.
	p.accept(tokSemi)
	return d, nil
}

// parseFields parses "{ name: type [sensitive], ... };".
func (p *parser) parseFields(d *TypeDecl) error {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return err
	}
	for {
		if p.accept(tokRBrace) {
			break
		}
		name, err := p.expect(tokIdent, "field name")
		if err != nil {
			return err
		}
		if _, err := p.expect(tokColon, ":"); err != nil {
			return err
		}
		typ, err := p.expect(tokIdent, "field type")
		if err != nil {
			return err
		}
		f := FieldDecl{Name: name.text, Type: typ.text}
		if p.peek().kind == tokIdent && p.peek().text == "sensitive" {
			p.next()
			f.Sensitive = true
		}
		d.Fields = append(d.Fields, f)
		if p.accept(tokComma) {
			continue
		}
		if p.accept(tokRBrace) {
			break
		}
		t := p.peek()
		return fmt.Errorf("%w: line %d: expected ',' or '}' in fields, got %q", ErrSyntax, t.line, t.text)
	}
	if _, err := p.expect(tokSemi, ";"); err != nil {
		return err
	}
	return nil
}

// parseView parses "name { field, ... };".
func (p *parser) parseView(d *TypeDecl) error {
	name, err := p.expect(tokIdent, "view name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return err
	}
	v := ViewDecl{Name: name.text}
	for {
		if p.accept(tokRBrace) {
			break
		}
		f, err := p.expect(tokIdent, "view field")
		if err != nil {
			return err
		}
		v.Fields = append(v.Fields, f.text)
		if p.accept(tokComma) {
			continue
		}
		if p.accept(tokRBrace) {
			break
		}
		t := p.peek()
		return fmt.Errorf("%w: line %d: expected ',' or '}' in view, got %q", ErrSyntax, t.line, t.text)
	}
	if _, err := p.expect(tokSemi, ";"); err != nil {
		return err
	}
	d.Views = append(d.Views, v)
	return nil
}

// parsePairs parses "{ key: value, ... };" sections (consent, collection).
func (p *parser) parsePairs(section string, emit func(k, v string)) error {
	if _, err := p.expect(tokLBrace, "{"); err != nil {
		return err
	}
	for {
		if p.accept(tokRBrace) {
			break
		}
		k, err := p.expect(tokIdent, section+" key")
		if err != nil {
			return err
		}
		if _, err := p.expect(tokColon, ":"); err != nil {
			return err
		}
		v, err := p.expect(tokIdent, section+" value")
		if err != nil {
			return err
		}
		emit(k.text, v.text)
		if p.accept(tokComma) {
			continue
		}
		if p.accept(tokRBrace) {
			break
		}
		t := p.peek()
		return fmt.Errorf("%w: line %d: expected ',' or '}' in %s, got %q", ErrSyntax, t.line, section, t.text)
	}
	if _, err := p.expect(tokSemi, ";"); err != nil {
		return err
	}
	return nil
}

// ParseAge parses the DSL's retention spellings: 1Y, 6M (months), 2W, 30D,
// 12H, or any Go duration string.
func ParseAge(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	last := s[len(s)-1]
	head := s[:len(s)-1]
	if n, err := strconv.Atoi(head); err == nil {
		switch last {
		case 'Y', 'y':
			return time.Duration(n) * 365 * 24 * time.Hour, nil
		case 'M':
			return time.Duration(n) * 30 * 24 * time.Hour, nil
		case 'W', 'w':
			return time.Duration(n) * 7 * 24 * time.Hour, nil
		case 'D', 'd':
			return time.Duration(n) * 24 * time.Hour, nil
		case 'H', 'h':
			return time.Duration(n) * time.Hour, nil
		}
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%w: bad age %q", ErrCompile, s)
	}
	return d, nil
}

// CompileOptions tunes Compile.
type CompileOptions struct {
	// FieldAliases maps view-field names onto declared fields, for listings
	// (like the paper's) whose views name derived fields.
	FieldAliases map[string]string
}

// Compile lowers a TypeDecl to a validated dbfs.Schema.
func Compile(d *TypeDecl, opts CompileOptions) (*dbfs.Schema, error) {
	sch := &dbfs.Schema{Name: d.Name}
	declared := make(map[string]bool, len(d.Fields))
	for _, f := range d.Fields {
		ft, err := dbfs.ParseFieldType(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: type %q field %q: %v", ErrCompile, d.Name, f.Name, err)
		}
		sch.Fields = append(sch.Fields, dbfs.Field{Name: f.Name, Type: ft, Sensitive: f.Sensitive})
		declared[f.Name] = true
	}
	resolveField := func(name string) (string, error) {
		if declared[name] {
			return name, nil
		}
		if alias, ok := opts.FieldAliases[name]; ok && declared[alias] {
			return alias, nil
		}
		return "", fmt.Errorf("%w: type %q: view references undeclared field %q", ErrCompile, d.Name, name)
	}
	viewNames := make(map[string]bool, len(d.Views))
	for _, v := range d.Views {
		dv := dbfs.View{Name: v.Name}
		for _, f := range v.Fields {
			resolved, err := resolveField(f)
			if err != nil {
				return nil, err
			}
			dv.Fields = append(dv.Fields, resolved)
		}
		sch.Views = append(sch.Views, dv)
		viewNames[v.Name] = true
	}
	if len(d.Consent) > 0 {
		sch.DefaultConsent = make(map[string]membrane.Grant, len(d.Consent))
		for _, c := range d.Consent {
			g, err := resolveGrant(c.Value, viewNames)
			if err != nil {
				return nil, fmt.Errorf("%w: type %q purpose %q: %v", ErrCompile, d.Name, c.Purpose, err)
			}
			sch.DefaultConsent[c.Purpose] = g
		}
	}
	if len(d.Collection) > 0 {
		sch.Collection = make(map[string]string, len(d.Collection))
		for _, c := range d.Collection {
			sch.Collection[c.Method] = c.Ref
		}
	}
	if d.Origin != "" {
		o, err := membrane.ParseOrigin(d.Origin)
		if err != nil {
			return nil, fmt.Errorf("%w: type %q: %v", ErrCompile, d.Name, err)
		}
		sch.Origin = o
	}
	if d.Age != "" {
		ttl, err := ParseAge(d.Age)
		if err != nil {
			return nil, err
		}
		sch.DefaultTTL = ttl
	}
	if d.Sensitivity != "" {
		s, err := membrane.ParseSensitivity(d.Sensitivity)
		if err != nil {
			return nil, fmt.Errorf("%w: type %q: %v", ErrCompile, d.Name, err)
		}
		sch.Sensitivity = s
	}
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("%w: type %q: %v", ErrCompile, d.Name, err)
	}
	return sch, nil
}

// resolveGrant maps a consent value to a grant: all, none, or a view
// resolved by exact name, the v_ prefix convention, or unique suffix.
func resolveGrant(value string, views map[string]bool) (membrane.Grant, error) {
	switch value {
	case "all":
		return membrane.Grant{Kind: membrane.GrantAll}, nil
	case "none":
		return membrane.Grant{Kind: membrane.GrantNone}, nil
	}
	if views[value] {
		return membrane.Grant{Kind: membrane.GrantView, View: value}, nil
	}
	if views["v_"+value] {
		return membrane.Grant{Kind: membrane.GrantView, View: "v_" + value}, nil
	}
	var match string
	for v := range views {
		if strings.HasSuffix(v, value) {
			if match != "" {
				return membrane.Grant{}, fmt.Errorf("consent value %q is ambiguous", value)
			}
			match = v
		}
	}
	if match == "" {
		return membrane.Grant{}, fmt.Errorf("consent value %q matches no view", value)
	}
	return membrane.Grant{Kind: membrane.GrantView, View: match}, nil
}

// CompileSource parses and compiles every declaration in src.
func CompileSource(src string, opts CompileOptions) ([]*dbfs.Schema, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	out := make([]*dbfs.Schema, 0, len(decls))
	for _, d := range decls {
		sch, err := Compile(d, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}

// Format prints a TypeDecl in canonical DSL form. Parse(Format(d)) yields d
// back (property-tested).
func Format(d *TypeDecl) string {
	var b strings.Builder
	fmt.Fprintf(&b, "type %s {\n", d.Name)
	if len(d.Fields) > 0 {
		b.WriteString("  fields {\n")
		for i, f := range d.Fields {
			sep := ","
			if i == len(d.Fields)-1 {
				sep = ""
			}
			if f.Sensitive {
				fmt.Fprintf(&b, "    %s: %s sensitive%s\n", f.Name, f.Type, sep)
			} else {
				fmt.Fprintf(&b, "    %s: %s%s\n", f.Name, f.Type, sep)
			}
		}
		b.WriteString("  };\n")
	}
	for _, v := range d.Views {
		fmt.Fprintf(&b, "  view %s {\n", v.Name)
		for i, f := range v.Fields {
			sep := ","
			if i == len(v.Fields)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "    %s%s\n", f, sep)
		}
		b.WriteString("  };\n")
	}
	writePairs := func(section string, pairs [][2]string) {
		if len(pairs) == 0 {
			return
		}
		fmt.Fprintf(&b, "  %s {\n", section)
		for i, p := range pairs {
			sep := ","
			if i == len(pairs)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "    %s: %s%s\n", p[0], p[1], sep)
		}
		b.WriteString("  };\n")
	}
	consent := make([][2]string, 0, len(d.Consent))
	for _, c := range d.Consent {
		consent = append(consent, [2]string{c.Purpose, c.Value})
	}
	writePairs("consent", consent)
	collection := make([][2]string, 0, len(d.Collection))
	for _, c := range d.Collection {
		collection = append(collection, [2]string{c.Method, c.Ref})
	}
	writePairs("collection", collection)
	if d.Origin != "" {
		fmt.Fprintf(&b, "  origin: %s;\n", d.Origin)
	}
	if d.Age != "" {
		fmt.Fprintf(&b, "  age: %s;\n", d.Age)
	}
	if d.Sensitivity != "" {
		fmt.Fprintf(&b, "  sensitivity: %s;\n", d.Sensitivity)
	}
	b.WriteString("}\n")
	return b.String()
}
