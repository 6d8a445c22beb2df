// Package dbfs implements the paper's database-oriented filesystem (Idea 3,
// §2–§3): personal data is stored not as opaque files but as typed records
// in tables, each wrapped in a membrane, organized as two major inode trees
// over the uFS-style inode layer.
//
//   - The subject tree gathers every PD from all subjects, one inode subtree
//     per subject holding both the data and its membrane.
//   - The schema tree provides the database structure: a core inode per
//     table describing the fields, plus links to the subject inodes that
//     hold records of that table.
//   - A dedicated format tree describes how record bytes are encoded; it is
//     loaded once per mount session and used to format data returned to the
//     DED, exactly as §3(1) sketches.
//
// Record payloads are encrypted at rest with per-PD keys
// (internal/cryptoshred), and fields marked sensitive are stored separately
// under their own key — the GDPR's separation requirement for sensitive
// data (§2). Every access is mediated by an LSM capability check: DBFS "is
// not visible from the outside" (§2); only a token holding CapDBFS (minted
// for the DED) passes.
package dbfs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/membrane"
)

// FieldType is the type of a schema field.
type FieldType int

// Field types supported by the record codec.
const (
	TypeString FieldType = iota + 1
	TypeInt
	TypeFloat
	TypeBool
	TypeTime
)

// String returns the DSL spelling of the type.
func (t FieldType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeTime:
		return "time"
	default:
		return fmt.Sprintf("fieldtype(%d)", int(t))
	}
}

// ParseFieldType maps a DSL spelling to a FieldType.
func ParseFieldType(s string) (FieldType, error) {
	switch s {
	case "string":
		return TypeString, nil
	case "int":
		return TypeInt, nil
	case "float":
		return TypeFloat, nil
	case "bool":
		return TypeBool, nil
	case "time":
		return TypeTime, nil
	default:
		return 0, fmt.Errorf("dbfs: unknown field type %q", s)
	}
}

// Field is one typed column of a PD type.
type Field struct {
	Name string    `json:"name"`
	Type FieldType `json:"type"`
	// Sensitive marks fields that must be stored separately under their
	// own data key (§2's sensibility level at field granularity).
	Sensitive bool `json:"sensitive,omitempty"`
}

// View is a named projection of a type — the paper's data-minimization
// mechanism: "a specific representation or fragment of the data type".
type View struct {
	Name   string   `json:"name"`
	Fields []string `json:"fields"`
}

// Schema describes one PD type: a table in the kernel's database.
type Schema struct {
	Name   string  `json:"name"`
	Fields []Field `json:"fields"`
	Views  []View  `json:"views,omitempty"`
	// DefaultConsent is Listing 1's consent block: the grants applied when
	// data of this type is collected, backed by the operator's legitimate
	// basis.
	DefaultConsent map[string]membrane.Grant `json:"default_consent,omitempty"`
	// Collection maps collection method to interface reference (Listing
	// 1's collection block).
	Collection map[string]string `json:"collection,omitempty"`
	// DefaultTTL is Listing 1's "age" property.
	DefaultTTL time.Duration `json:"default_ttl,omitempty"`
	// Origin is the default provenance of collected records.
	Origin membrane.Origin `json:"origin,omitempty"`
	// Sensitivity is the type-level sensibility.
	Sensitivity membrane.Sensitivity `json:"sensitivity,omitempty"`
}

// Sentinel errors for schema and record validation.
var (
	// ErrBadSchema reports an invalid schema.
	ErrBadSchema = errors.New("dbfs: invalid schema")
	// ErrBadRecord reports a record not matching its schema.
	ErrBadRecord = errors.New("dbfs: record does not match schema")
	// ErrNoView reports a reference to an undeclared view.
	ErrNoView = errors.New("dbfs: no such view")
	// ErrFieldHidden reports a field access outside the granted view.
	ErrFieldHidden = errors.New("dbfs: field not visible in granted view")
)

// Validate checks structural invariants: unique names, known types, views
// referencing declared fields, default consents referencing declared views.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("%w: empty type name", ErrBadSchema)
	}
	if len(s.Fields) == 0 {
		return fmt.Errorf("%w: type %q has no fields", ErrBadSchema, s.Name)
	}
	fields := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("%w: type %q has unnamed field", ErrBadSchema, s.Name)
		}
		if fields[f.Name] {
			return fmt.Errorf("%w: duplicate field %q", ErrBadSchema, f.Name)
		}
		if f.Type < TypeString || f.Type > TypeTime {
			return fmt.Errorf("%w: field %q has unknown type", ErrBadSchema, f.Name)
		}
		fields[f.Name] = true
	}
	views := make(map[string]bool, len(s.Views))
	for _, v := range s.Views {
		if v.Name == "" {
			return fmt.Errorf("%w: unnamed view", ErrBadSchema)
		}
		if views[v.Name] {
			return fmt.Errorf("%w: duplicate view %q", ErrBadSchema, v.Name)
		}
		if len(v.Fields) == 0 {
			return fmt.Errorf("%w: view %q is empty", ErrBadSchema, v.Name)
		}
		for _, fn := range v.Fields {
			if !fields[fn] {
				return fmt.Errorf("%w: view %q references unknown field %q", ErrBadSchema, v.Name, fn)
			}
		}
		views[v.Name] = true
	}
	for purpose, g := range s.DefaultConsent {
		if purpose == "" {
			return fmt.Errorf("%w: empty purpose in default consent", ErrBadSchema)
		}
		if g.Kind == membrane.GrantView && !views[g.View] {
			return fmt.Errorf("%w: consent for %q references unknown view %q", ErrBadSchema, purpose, g.View)
		}
	}
	return nil
}

// ViewByName returns the named view.
func (s *Schema) ViewByName(name string) (View, bool) {
	for _, v := range s.Views {
		if v.Name == name {
			return v, true
		}
	}
	return View{}, false
}

// FieldByName returns the named field.
func (s *Schema) FieldByName(name string) (Field, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// VisibleFields resolves a grant to the set of field names it exposes.
func (s *Schema) VisibleFields(g membrane.Grant) (map[string]bool, error) {
	switch g.Kind {
	case membrane.GrantAll:
		out := make(map[string]bool, len(s.Fields))
		for _, f := range s.Fields {
			out[f.Name] = true
		}
		return out, nil
	case membrane.GrantView:
		v, ok := s.ViewByName(g.View)
		if !ok {
			return nil, fmt.Errorf("%w: %q in type %q", ErrNoView, g.View, s.Name)
		}
		out := make(map[string]bool, len(v.Fields))
		for _, fn := range v.Fields {
			out[fn] = true
		}
		return out, nil
	default:
		return map[string]bool{}, nil
	}
}

// DefaultMembrane builds the membrane applied to a newly collected record of
// this type, per Listing 1's defaults.
func (s *Schema) DefaultMembrane(pdid, subjectID string, now time.Time) *membrane.Membrane {
	m := membrane.New(pdid, s.Name, subjectID)
	if s.Origin != 0 {
		m.Origin = s.Origin
	}
	if s.Sensitivity != 0 {
		m.Sensitivity = s.Sensitivity
	}
	for p, g := range s.DefaultConsent {
		m.Consents[p] = g
	}
	m.TTL = s.DefaultTTL
	m.CreatedAt = now
	for k, v := range s.Collection {
		m.Collection[k] = v
	}
	return m
}

// EncodeSchema serializes a schema for the schema tree's "def" inode.
func EncodeSchema(s *Schema) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("dbfs: encode schema %q: %w", s.Name, err)
	}
	return b, nil
}

// DecodeSchema deserializes and validates a schema.
func DecodeSchema(b []byte) (*Schema, error) {
	var s Schema
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("dbfs: decode schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Value is one typed field value. Exactly the field matching Type is
// meaningful; constructors enforce this.
type Value struct {
	Type FieldType `json:"type"`
	S    string    `json:"s,omitempty"`
	I    int64     `json:"i,omitempty"`
	F    float64   `json:"f,omitempty"`
	B    bool      `json:"b,omitempty"`
	T    time.Time `json:"t,omitempty"`
}

// S constructs a string value.
func S(v string) Value { return Value{Type: TypeString, S: v} }

// I constructs an int value.
func I(v int64) Value { return Value{Type: TypeInt, I: v} }

// F constructs a float value.
func F(v float64) Value { return Value{Type: TypeFloat, F: v} }

// B constructs a bool value.
func B(v bool) Value { return Value{Type: TypeBool, B: v} }

// T constructs a time value.
func T(v time.Time) Value { return Value{Type: TypeTime, T: v} }

// String renders the value for humans.
func (v Value) String() string {
	switch v.Type {
	case TypeString:
		return v.S
	case TypeInt:
		return fmt.Sprintf("%d", v.I)
	case TypeFloat:
		return fmt.Sprintf("%g", v.F)
	case TypeBool:
		return fmt.Sprintf("%t", v.B)
	case TypeTime:
		return v.T.UTC().Format(time.RFC3339)
	default:
		return "<invalid>"
	}
}

// Export returns the value as a plain Go value for the structured,
// machine-readable exports of the right of access.
func (v Value) Export() any {
	switch v.Type {
	case TypeString:
		return v.S
	case TypeInt:
		return v.I
	case TypeFloat:
		return v.F
	case TypeBool:
		return v.B
	case TypeTime:
		return v.T.UTC().Format(time.RFC3339)
	default:
		return nil
	}
}

// Record maps field names to values.
type Record map[string]Value

// Clone returns a copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// validateRecord checks that every record field exists in the schema with
// the right type. Missing fields are allowed (views, partial updates).
func validateRecord(s *Schema, r Record) error {
	for name, v := range r {
		f, ok := s.FieldByName(name)
		if !ok {
			return fmt.Errorf("%w: unknown field %q in type %q", ErrBadRecord, name, s.Name)
		}
		if f.Type != v.Type {
			return fmt.Errorf("%w: field %q is %v, value is %v", ErrBadRecord, name, f.Type, v.Type)
		}
	}
	return nil
}

// encodeRecordPart serializes the subset of r covered by part (field names)
// in schema order: for each schema field in part, a presence byte then the
// value payload. Schema-ordered encoding means no field names on disk; the
// format tree carries the mapping.
func encodeRecordPart(s *Schema, r Record, part map[string]bool) ([]byte, error) {
	if err := validateRecord(s, r); err != nil {
		return nil, err
	}
	var out []byte
	var scratch [8]byte
	for _, f := range s.Fields {
		if !part[f.Name] {
			continue
		}
		v, ok := r[f.Name]
		if !ok {
			out = append(out, 0)
			continue
		}
		out = append(out, 1)
		switch f.Type {
		case TypeString:
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(v.S)))
			out = append(out, scratch[:4]...)
			out = append(out, v.S...)
		case TypeInt:
			binary.LittleEndian.PutUint64(scratch[:], uint64(v.I))
			out = append(out, scratch[:]...)
		case TypeFloat:
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v.F))
			out = append(out, scratch[:]...)
		case TypeBool:
			if v.B {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case TypeTime:
			binary.LittleEndian.PutUint64(scratch[:], uint64(v.T.UnixNano()))
			out = append(out, scratch[:]...)
		}
	}
	return out, nil
}

// decodeRecordPart is the inverse of encodeRecordPart.
func decodeRecordPart(s *Schema, data []byte, part map[string]bool) (Record, error) {
	out := make(Record)
	off := 0
	need := func(n int) error {
		if off+n > len(data) {
			return fmt.Errorf("%w: truncated record for type %q", ErrBadRecord, s.Name)
		}
		return nil
	}
	for _, f := range s.Fields {
		if !part[f.Name] {
			continue
		}
		if err := need(1); err != nil {
			return nil, err
		}
		present := data[off] == 1
		off++
		if !present {
			continue
		}
		switch f.Type {
		case TypeString:
			if err := need(4); err != nil {
				return nil, err
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if err := need(n); err != nil {
				return nil, err
			}
			out[f.Name] = S(string(data[off : off+n]))
			off += n
		case TypeInt:
			if err := need(8); err != nil {
				return nil, err
			}
			out[f.Name] = I(int64(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		case TypeFloat:
			if err := need(8); err != nil {
				return nil, err
			}
			out[f.Name] = F(math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
			off += 8
		case TypeBool:
			if err := need(1); err != nil {
				return nil, err
			}
			out[f.Name] = B(data[off] == 1)
			off++
		case TypeTime:
			if err := need(8); err != nil {
				return nil, err
			}
			out[f.Name] = T(time.Unix(0, int64(binary.LittleEndian.Uint64(data[off:]))).UTC())
			off += 8
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(data)-off)
	}
	return out, nil
}

// formatEntry is one row of the format tree: the session-loaded descriptor
// of how a type's record bytes are laid out (§3's "dedicated set of inodes
// ... accessed only once ... during a given live session").
type formatEntry struct {
	Field     string    `json:"field"`
	Type      FieldType `json:"type"`
	Sensitive bool      `json:"sensitive,omitempty"`
}

// pdType is a declared type as the session holds it: its schema and its
// format descriptor, which is the codec's split of the fields into the
// plain part and the sensitive part (stored separately, §2). Both are
// built once per type, at CreateType or at Open from the schema and format
// trees, and never change.
type pdType struct {
	sch         *Schema
	plain, sens map[string]bool
}

// formatOf is a schema's format descriptor, as the format tree stores it.
func formatOf(s *Schema) []formatEntry {
	entries := make([]formatEntry, 0, len(s.Fields))
	for _, f := range s.Fields {
		entries = append(entries, formatEntry{Field: f.Name, Type: f.Type, Sensitive: f.Sensitive})
	}
	return entries
}

// splitFormat splits a format descriptor's fields into the plain part and
// the sensitive part.
func splitFormat(entries []formatEntry) (plain, sensitive map[string]bool) {
	plain = make(map[string]bool)
	sensitive = make(map[string]bool)
	for _, e := range entries {
		if e.Sensitive {
			sensitive[e.Field] = true
		} else {
			plain[e.Field] = true
		}
	}
	return plain, sensitive
}

// partsOf splits a schema's fields into the plain part and the sensitive
// part.
func partsOf(s *Schema) (plain, sensitive map[string]bool) { return splitFormat(formatOf(s)) }

// ProjectView filters rec down to the fields that the grant exposes and
// that declared (a purpose's reads of this type) contains: the view a
// processing runs on holds nothing its purpose did not declare. GrantNone
// yields an error: the caller should never have reached the data.
func ProjectView(s *Schema, rec Record, g membrane.Grant, declared map[string]bool) (Record, error) {
	if !g.Allows() {
		return nil, fmt.Errorf("%w: grant is none", ErrFieldHidden)
	}
	visible, err := s.VisibleFields(g)
	if err != nil {
		return nil, err
	}
	out := make(Record, len(declared))
	for name := range declared {
		if v, ok := rec[name]; ok && visible[name] {
			out[name] = v
		}
	}
	return out, nil
}
