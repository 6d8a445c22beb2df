// Package purpose implements the paper's purpose declarations and the
// purpose↔implementation matching check.
//
// A "data processing" in rgpdOS is a pair of one purpose and its
// implementation (§2). Purposes are written in "a new very high level
// language as purposes should probably be written by the project manager
// while the actual implementation is written by developers"; this package
// provides that language:
//
//	purpose compute_age "Compute the age of the input user" {
//	  basis: consent;
//	  reads: user.year_of_birthdate;
//	  produces: age_pd;
//	}
//
// §3(4) leaves "checking if a processing's implementation matches its
// purpose" as an open problem, to be attacked with semantics/AI. The
// reproduction implements the tractable core every such checker needs: the
// implementation declares the fields it accesses, and Match compares them
// against the purpose's reads clause at registration, reporting undeclared
// accesses, which the Processing Store turns into sysadmin alerts. At run
// time the reads clause itself bounds what a processing can see: the DED
// projects every record onto ReadsOfType, so an access outside it fails.
package purpose

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Basis is the GDPR Art. 6(1) legal basis invoked by a purpose.
type Basis int

// Legal bases (Art. 6(1)(a)–(f)).
const (
	BasisConsent Basis = iota + 1
	BasisContract
	BasisLegalObligation
	BasisVitalInterest
	BasisPublicTask
	BasisLegitimateInterest
)

var basisNames = map[Basis]string{
	BasisConsent:            "consent",
	BasisContract:           "contract",
	BasisLegalObligation:    "legal_obligation",
	BasisVitalInterest:      "vital_interest",
	BasisPublicTask:         "public_task",
	BasisLegitimateInterest: "legitimate_interest",
}

// String returns the DSL spelling.
func (b Basis) String() string {
	if s, ok := basisNames[b]; ok {
		return s
	}
	return fmt.Sprintf("basis(%d)", int(b))
}

// ParseBasis maps a DSL spelling to a Basis.
func ParseBasis(s string) (Basis, error) {
	for b, name := range basisNames {
		if name == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("purpose: unknown legal basis %q", s)
}

// Sentinel errors.
var (
	// ErrInvalid reports an invalid purpose declaration.
	ErrInvalid = errors.New("purpose: invalid declaration")
	// ErrSyntax reports a parse failure in the purpose language.
	ErrSyntax = errors.New("purpose: syntax error")
)

// Decl is one declared purpose.
type Decl struct {
	// Name identifies the purpose (membranes grant consent per Name).
	Name string
	// Description is the human statement of the purpose, shown to subjects.
	Description string
	// Basis is the legal basis claimed.
	Basis Basis
	// Reads lists the "type.field" references the purpose needs — the
	// data-minimization contract.
	Reads []string
	// Produces names the PD type generated by the processing, if any.
	Produces string
}

// Validate checks the declaration: non-empty name and description (a purpose
// with no statement is unreviewable), a known basis, and well-formed reads.
func (d *Decl) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalid)
	}
	if d.Description == "" {
		return fmt.Errorf("%w: purpose %q has no description", ErrInvalid, d.Name)
	}
	if _, ok := basisNames[d.Basis]; !ok {
		return fmt.Errorf("%w: purpose %q has no legal basis", ErrInvalid, d.Name)
	}
	for _, r := range d.Reads {
		if !strings.Contains(r, ".") {
			return fmt.Errorf("%w: purpose %q read %q is not type.field", ErrInvalid, d.Name, r)
		}
	}
	return nil
}

// ReadsOfType returns the field names this purpose reads from typeName.
func (d *Decl) ReadsOfType(typeName string) []string {
	var out []string
	for _, r := range d.Reads {
		if ty, f, ok := strings.Cut(r, "."); ok && ty == typeName {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// MatchReport is the verdict of the purpose↔implementation check.
type MatchReport struct {
	// OK is true when the implementation accesses no undeclared fields.
	OK bool
	// Undeclared lists fields the implementation accesses but the purpose
	// does not declare — the dangerous direction, raising an alert.
	Undeclared []string
	// Unused lists declared reads the implementation never touches —
	// over-declaration, a data-minimization smell reported but not fatal.
	Unused []string
}

// Match compares a purpose's declared reads with the field accesses an
// implementation declares. Both sides use "type.field" references.
func Match(d *Decl, implReads []string) MatchReport {
	declared := make(map[string]bool, len(d.Reads))
	for _, r := range d.Reads {
		declared[r] = true
	}
	used := make(map[string]bool, len(implReads))
	var undeclared []string
	for _, r := range implReads {
		used[r] = true
		if !declared[r] {
			undeclared = append(undeclared, r)
		}
	}
	var unused []string
	for _, r := range d.Reads {
		if !used[r] {
			unused = append(unused, r)
		}
	}
	sort.Strings(undeclared)
	sort.Strings(unused)
	return MatchReport{OK: len(undeclared) == 0, Undeclared: undeclared, Unused: unused}
}

// --- the very-high-level purpose language ---

// Parse parses one or more purpose declarations.
//
//	purpose <name> "<description>" {
//	  basis: <consent|contract|legal_obligation|vital_interest|public_task|legitimate_interest>;
//	  reads: type.field, type.field;
//	  produces: type;
//	}
//
// The reads and produces clauses are optional.
func Parse(src string) ([]*Decl, error) {
	var decls []*Decl
	rest := src
	line := 1
	for {
		rest = skipSpace(rest, &line)
		if rest == "" {
			break
		}
		var d *Decl
		var err error
		d, rest, err = parseOne(rest, &line)
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
	}
	if len(decls) == 0 {
		return nil, fmt.Errorf("%w: no purpose declarations", ErrSyntax)
	}
	return decls, nil
}

func skipSpace(s string, line *int) string {
	for {
		i := 0
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
			if s[i] == '\n' {
				*line++
			}
			i++
		}
		s = s[i:]
		if strings.HasPrefix(s, "//") {
			nl := strings.IndexByte(s, '\n')
			if nl < 0 {
				return ""
			}
			s = s[nl:]
			continue
		}
		return s
	}
}

func parseIdent(s string, line *int, what string) (string, string, error) {
	s = skipSpace(s, line)
	i := 0
	for i < len(s) {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' {
			i++
			continue
		}
		break
	}
	if i == 0 {
		return "", s, fmt.Errorf("%w: line %d: expected %s", ErrSyntax, *line, what)
	}
	return s[:i], s[i:], nil
}

func expectByte(s string, line *int, b byte) (string, error) {
	s = skipSpace(s, line)
	if s == "" || s[0] != b {
		got := "EOF"
		if s != "" {
			got = string(s[0])
		}
		return s, fmt.Errorf("%w: line %d: expected %q, got %q", ErrSyntax, *line, string(b), got)
	}
	return s[1:], nil
}

func parseOne(s string, line *int) (*Decl, string, error) {
	kw, rest, err := parseIdent(s, line, `"purpose"`)
	if err != nil {
		return nil, s, err
	}
	if kw != "purpose" {
		return nil, s, fmt.Errorf("%w: line %d: expected \"purpose\", got %q", ErrSyntax, *line, kw)
	}
	name, rest, err := parseIdent(rest, line, "purpose name")
	if err != nil {
		return nil, s, err
	}
	d := &Decl{Name: name}
	rest = skipSpace(rest, line)
	if rest != "" && rest[0] == '"' {
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			return nil, s, fmt.Errorf("%w: line %d: unterminated description", ErrSyntax, *line)
		}
		d.Description = rest[1 : 1+end]
		*line += strings.Count(d.Description, "\n")
		rest = rest[end+2:]
	}
	if rest, err = expectByte(rest, line, '{'); err != nil {
		return nil, s, err
	}
	for {
		rest = skipSpace(rest, line)
		if rest == "" {
			return nil, s, fmt.Errorf("%w: line %d: unterminated purpose %q", ErrSyntax, *line, name)
		}
		if rest[0] == '}' {
			rest = rest[1:]
			break
		}
		var key string
		key, rest, err = parseIdent(rest, line, "clause")
		if err != nil {
			return nil, s, err
		}
		if rest, err = expectByte(rest, line, ':'); err != nil {
			return nil, s, err
		}
		switch key {
		case "basis":
			var val string
			val, rest, err = parseIdent(rest, line, "basis value")
			if err != nil {
				return nil, s, err
			}
			b, err := ParseBasis(val)
			if err != nil {
				return nil, s, fmt.Errorf("%w: line %d: %v", ErrSyntax, *line, err)
			}
			d.Basis = b
		case "reads":
			for {
				var val string
				val, rest, err = parseIdent(rest, line, "read reference")
				if err != nil {
					return nil, s, err
				}
				d.Reads = append(d.Reads, val)
				rest = skipSpace(rest, line)
				if rest != "" && rest[0] == ',' {
					rest = rest[1:]
					continue
				}
				break
			}
		case "produces":
			var val string
			val, rest, err = parseIdent(rest, line, "produces type")
			if err != nil {
				return nil, s, err
			}
			d.Produces = val
		default:
			return nil, s, fmt.Errorf("%w: line %d: unknown clause %q", ErrSyntax, *line, key)
		}
		if rest, err = expectByte(rest, line, ';'); err != nil {
			return nil, s, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, s, err
	}
	return d, rest, nil
}

// Format prints a declaration in canonical form (Parse∘Format is identity).
func Format(d *Decl) string {
	var b strings.Builder
	fmt.Fprintf(&b, "purpose %s %q {\n", d.Name, d.Description)
	fmt.Fprintf(&b, "  basis: %s;\n", d.Basis)
	if len(d.Reads) > 0 {
		fmt.Fprintf(&b, "  reads: %s;\n", strings.Join(d.Reads, ", "))
	}
	if d.Produces != "" {
		fmt.Fprintf(&b, "  produces: %s;\n", d.Produces)
	}
	b.WriteString("}\n")
	return b.String()
}
